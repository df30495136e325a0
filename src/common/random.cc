#include "common/random.h"

#include <algorithm>
#include <numeric>

#include "common/check.h"
#include "common/hash.h"

namespace approxmem {
namespace {

// SplitMix64 step, used only for seeding.
inline uint64_t SplitMix64(uint64_t& state) {
  return Mix64(state += kSplitMix64Gamma);
}

}  // namespace

Rng::Rng(uint64_t seed) {
  uint64_t sm = seed;
  for (auto& s : state_) s = SplitMix64(sm);
  // xoshiro must not start from the all-zero state.
  if ((state_[0] | state_[1] | state_[2] | state_[3]) == 0) state_[0] = 1;
}

double Rng::UniformDouble(double lo, double hi) {
  return lo + (hi - lo) * UniformDouble();
}

uint64_t Rng::UniformInt(uint64_t bound) {
  APPROXMEM_CHECK(bound > 0);
  // Lemire's nearly-divisionless unbiased bounded generation.
  uint64_t x = Next64();
  __uint128_t m = static_cast<__uint128_t>(x) * bound;
  uint64_t low = static_cast<uint64_t>(m);
  if (low < bound) {
    const uint64_t threshold = -bound % bound;
    while (low < threshold) {
      x = Next64();
      m = static_cast<__uint128_t>(x) * bound;
      low = static_cast<uint64_t>(m);
    }
  }
  return static_cast<uint64_t>(m >> 64);
}

double Rng::StandardNormal() {
  if (has_cached_normal_) {
    has_cached_normal_ = false;
    return cached_normal_;
  }
  // Marsaglia polar method.
  double u, v, s;
  do {
    u = 2.0 * UniformDouble() - 1.0;
    v = 2.0 * UniformDouble() - 1.0;
    s = u * u + v * v;
  } while (s >= 1.0 || s == 0.0);
  const double factor = std::sqrt(-2.0 * std::log(s) / s);
  cached_normal_ = v * factor;
  has_cached_normal_ = true;
  return u * factor;
}

double Rng::Normal(double mean, double stddev) {
  return mean + stddev * StandardNormal();
}

Rng Rng::Split() { return Rng(Next64()); }

void Rng::FillUniformDoubles(double* out, size_t count) {
  for (size_t i = 0; i < count; ++i) out[i] = UniformDouble();
}

std::vector<uint32_t> UniformKeys(size_t n, Rng& rng) {
  std::vector<uint32_t> keys(n);
  for (auto& k : keys) k = rng.NextU32();
  return keys;
}

std::vector<uint32_t> SkewedKeys(size_t n, double skew, Rng& rng) {
  APPROXMEM_CHECK(skew > 0.0);
  std::vector<uint32_t> keys(n);
  for (auto& k : keys) {
    // Inverse-transform sample of a bounded power-law: u^(1/skew) compresses
    // mass toward 0. The small 10-bit alphabet guarantees heavy duplication
    // (the point of this workload) at any n.
    const double u = rng.UniformDouble();
    const double x = std::pow(u, 1.0 / skew);
    k = static_cast<uint32_t>(x * 1023.0);
  }
  return keys;
}

std::vector<uint32_t> NearlySortedKeys(size_t n, size_t swaps, Rng& rng) {
  std::vector<uint32_t> keys = UniformKeys(n, rng);
  std::sort(keys.begin(), keys.end());
  for (size_t s = 0; s < swaps && n > 1; ++s) {
    const size_t i = rng.UniformInt(n);
    const size_t j = rng.UniformInt(n);
    std::swap(keys[i], keys[j]);
  }
  return keys;
}

}  // namespace approxmem
