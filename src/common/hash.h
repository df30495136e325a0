// The library's two non-cryptographic hash primitives.
//
// Fnv1a64 is the digest behind every replay gate (output digests, ledger
// digests, attempt digests): equal digests mean byte-identical data. Mix64 is
// SplitMix64's output finalizer, used to diffuse seeds and stream keys so
// adjacent inputs land on well-separated RNG seeds.
#ifndef APPROXMEM_COMMON_HASH_H_
#define APPROXMEM_COMMON_HASH_H_

#include <cstddef>
#include <cstdint>

namespace approxmem {

inline constexpr uint64_t kFnv1a64Offset = 0xcbf29ce484222325ULL;

/// FNV-1a 64 over `bytes` bytes of `data`, continuing from `seed` (the
/// offset basis starts a fresh digest).
inline uint64_t Fnv1a64(const void* data, size_t bytes,
                        uint64_t seed = kFnv1a64Offset) {
  const unsigned char* p = static_cast<const unsigned char*>(data);
  uint64_t hash = seed;
  for (size_t i = 0; i < bytes; ++i) {
    hash ^= p[i];
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

/// Folds one 64-bit value (its in-memory bytes) into the digest `hash`.
inline uint64_t Fnv1a64Word(uint64_t hash, uint64_t value) {
  return Fnv1a64(&value, sizeof(value), hash);
}

/// SplitMix64's golden-ratio increment.
inline constexpr uint64_t kSplitMix64Gamma = 0x9e3779b97f4a7c15ULL;

/// SplitMix64's output finalizer: a bijective avalanche mix of `z`.
constexpr uint64_t Mix64(uint64_t z) {
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

}  // namespace approxmem

#endif  // APPROXMEM_COMMON_HASH_H_
