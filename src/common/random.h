// Fast, reproducible pseudo-random number generation.
//
// All stochastic behaviour in the simulator (program-and-verify write steps,
// read drift, pivot selection, workload generation) flows through Rng so that
// experiments are exactly reproducible from a seed. The generator is
// xoshiro256++ seeded via SplitMix64; it is not cryptographically secure and
// does not need to be.
#ifndef APPROXMEM_COMMON_RANDOM_H_
#define APPROXMEM_COMMON_RANDOM_H_

#include <cmath>
#include <cstdint>
#include <vector>

namespace approxmem {

/// xoshiro256++ pseudo-random generator with convenience distributions.
///
/// The class satisfies the UniformRandomBitGenerator requirements so it can
/// also be plugged into <random> distributions when convenient, but the
/// built-in methods (Uniform, Normal, ...) are faster and are what the
/// simulator uses on its hot paths.
class Rng {
 public:
  using result_type = uint64_t;

  /// Seeds the generator deterministically; equal seeds give equal streams.
  explicit Rng(uint64_t seed = 0x9e3779b97f4a7c15ULL);

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~uint64_t{0}; }
  result_type operator()() { return Next64(); }

  /// Returns the next 64 random bits.
  uint64_t Next64() {
    const uint64_t result = Rotl(state_[0] + state_[3], 23) + state_[0];
    const uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = Rotl(state_[3], 45);
    return result;
  }

  /// Returns a double uniformly distributed in [0, 1).
  double UniformDouble() {
    // 53 random mantissa bits -> uniform in [0, 1).
    return static_cast<double>(Next64() >> 11) * 0x1.0p-53;
  }

  /// Returns a double uniformly distributed in [lo, hi).
  double UniformDouble(double lo, double hi);

  /// Returns an integer uniformly distributed in [0, bound). bound > 0.
  /// Uses Lemire's multiply-shift rejection method (unbiased).
  uint64_t UniformInt(uint64_t bound);

  /// Returns a 32-bit value uniformly distributed over all 2^32 values.
  uint32_t NextU32() { return static_cast<uint32_t>(Next64() >> 32); }

  /// Returns a sample from N(mean, stddev^2) via the polar (Marsaglia)
  /// method with one-value caching.
  double Normal(double mean, double stddev);

  /// Returns a standard normal sample, N(0, 1).
  double StandardNormal();

  /// Splits off an independently seeded generator; useful for giving each
  /// subsystem its own stream while keeping a single experiment seed.
  Rng Split();

  /// Fills `out[0, count)` with UniformDouble() draws, in order. The stream
  /// advances exactly `count` draws — batched refills are interchangeable
  /// with per-draw calls.
  void FillUniformDoubles(double* out, size_t count);

  /// Equal generators produce equal streams from here on.
  friend bool operator==(const Rng&, const Rng&) = default;

 private:
  static uint64_t Rotl(uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }

  uint64_t state_[4];
  double cached_normal_ = 0.0;
  bool has_cached_normal_ = false;
};

/// Generates `n` keys uniformly distributed over the full uint32 range.
std::vector<uint32_t> UniformKeys(size_t n, Rng& rng);

/// Generates `n` keys from a zipf-like skewed distribution (many duplicates).
/// `skew` in (0, 2]; larger means more skew. Used by workload sweeps.
std::vector<uint32_t> SkewedKeys(size_t n, double skew, Rng& rng);

/// Generates an almost-sorted sequence: sorted, then `swaps` random
/// transpositions are applied. Exercises adaptivity in the refine stage.
std::vector<uint32_t> NearlySortedKeys(size_t n, size_t swaps, Rng& rng);

}  // namespace approxmem

#endif  // APPROXMEM_COMMON_RANDOM_H_
