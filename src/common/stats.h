// Streaming statistics helpers used by calibration and the bench harness.
#ifndef APPROXMEM_COMMON_STATS_H_
#define APPROXMEM_COMMON_STATS_H_

#include <algorithm>
#include <bit>
#include <cfloat>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

namespace approxmem {

static_assert(std::numeric_limits<double>::is_iec559 && FLT_EVAL_METHOD == 0,
              "AddRepeated assumes IEEE doubles evaluated at double width");

/// Returns the value `k` serial `x += c` leave in `x`, bit for bit (IEEE
/// double, round to nearest even), in O(binades crossed) steps.
///
/// Inside one binade of x, with ulp u, an add moves x by the same multiple
/// of u, round(c / u), for as long as x + c stays below the binade top, so
/// a whole run of adds is one exact multiply-add. An exact tie (c / u ends
/// in .5) rounds to the even neighbour: once x / u is even (after at most
/// one serial add) the step is the even one of floor(c / u) and its
/// successor, and x / u stays even. The add that crosses into the next
/// binade, and adds to an x below 2^-900 (zero and subnormals), run
/// serially. A negative or non-finite x or c, or a k below 16, takes the
/// plain loop.
inline double AddRepeated(double x, double c, uint64_t k) {
  if (c == 0.0 && std::isfinite(x) && !std::signbit(x)) return x;
  // Below ~16 adds the loop is faster than one closed-form step.
  if (k < 16 || !std::isfinite(x) || !std::isfinite(c) || std::signbit(x) ||
      std::signbit(c)) {
    for (; k > 0; --k) x += c;
    return x;
  }
  constexpr int64_t kTop = int64_t{1} << 53;  // Binade top, in ulps of x.
  while (k > 0) {
    if (std::isinf(x)) return x;
    if (x >= 0x1p-900) {
      // x = m * u with m in [2^52, 2^53); u and 1/u are normal powers of 2.
      const uint64_t bits = std::bit_cast<uint64_t>(x);
      const uint64_t biased = bits >> 52;
      const int64_t m = static_cast<int64_t>(
          (bits & ((uint64_t{1} << 52) - 1)) | (uint64_t{1} << 52));
      const double u = std::bit_cast<double>((biased - 52) << 52);
      // r = c / u, exact unless it is far below 0.5.
      const double r = c * std::bit_cast<double>((2098 - biased) << 52);
      if (r < 0x1p53) {
        const int64_t rf = static_cast<int64_t>(r);  // floor(r): r >= 0.
        const double frac = r - static_cast<double>(rf);
        if (!(frac == 0.5 && (m & 1))) {
          const int64_t q = frac < 0.5   ? rf
                            : frac > 0.5 ? rf + 1
                                         : rf + (rf & 1);
          if (q == 0) return x;  // c is absorbed: x no longer moves.
          // Adds j = 0, 1, ... stay in the binade while m + j*q + r < 2^53.
          // Short runs that stay inside are the common case: they skip
          // the division.
          const int64_t room = kTop - 1 - m - rf;
          if (room >= 0) {
            uint64_t run = k;
            if (k > 512 || static_cast<int64_t>(k - 1) * q > room) {
              run = std::min(k, static_cast<uint64_t>(room / q) + 1);
            }
            x = static_cast<double>(m + static_cast<int64_t>(run) * q) * u;
            k -= run;
            continue;
          }
        }
      }
    }
    // Serial: x is zero or subnormal, the add crosses into the next
    // binade, or an odd x meets a tie.
    x += c;
    --k;
  }
  return x;
}

/// Accumulates count/mean/variance/min/max in one pass (Welford's method).
class RunningStat {
 public:
  void Add(double x);

  size_t count() const { return count_; }
  double mean() const { return count_ == 0 ? 0.0 : mean_; }
  double min() const { return min_; }
  double max() const { return max_; }
  /// Sample variance (n-1 denominator); 0 for fewer than two samples.
  double variance() const;
  double stddev() const;
  double sum() const { return mean_ * static_cast<double>(count_); }

  /// Merges another accumulator into this one.
  void Merge(const RunningStat& other);

 private:
  size_t count_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// Fixed-bin histogram over [lo, hi); out-of-range samples clamp to the
/// boundary bins. Used to record program-and-verify iteration counts and
/// stored-offset distributions during calibration.
class Histogram {
 public:
  Histogram(double lo, double hi, size_t bins);

  void Add(double x);

  size_t bins() const { return counts_.size(); }
  uint64_t bin_count(size_t i) const { return counts_[i]; }
  uint64_t total() const { return total_; }
  double bin_center(size_t i) const;
  double lo() const { return lo_; }
  double hi() const { return hi_; }

  /// Returns the p-quantile (p in [0,1]) estimated from bin centers.
  double Quantile(double p) const;

 private:
  double lo_;
  double hi_;
  double width_;
  std::vector<uint64_t> counts_;
  uint64_t total_ = 0;
};

}  // namespace approxmem

#endif  // APPROXMEM_COMMON_STATS_H_
