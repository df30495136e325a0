#include "common/stats.h"

#include <cmath>
#include <cstring>
#include <limits>
#include <set>
#include <string>

#include <gtest/gtest.h>

#include "approx/approx_memory.h"
#include "approx/memory_backend.h"
#include "common/random.h"

namespace approxmem {
namespace {

TEST(RunningStatTest, EmptyIsZero) {
  RunningStat stat;
  EXPECT_EQ(stat.count(), 0u);
  EXPECT_EQ(stat.mean(), 0.0);
  EXPECT_EQ(stat.variance(), 0.0);
}

TEST(RunningStatTest, SingleValue) {
  RunningStat stat;
  stat.Add(5.0);
  EXPECT_EQ(stat.count(), 1u);
  EXPECT_EQ(stat.mean(), 5.0);
  EXPECT_EQ(stat.min(), 5.0);
  EXPECT_EQ(stat.max(), 5.0);
  EXPECT_EQ(stat.variance(), 0.0);
}

TEST(RunningStatTest, KnownMoments) {
  RunningStat stat;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) stat.Add(x);
  EXPECT_DOUBLE_EQ(stat.mean(), 5.0);
  EXPECT_NEAR(stat.variance(), 32.0 / 7.0, 1e-12);  // Sample variance.
  EXPECT_EQ(stat.min(), 2.0);
  EXPECT_EQ(stat.max(), 9.0);
  EXPECT_DOUBLE_EQ(stat.sum(), 40.0);
}

TEST(RunningStatTest, MergeMatchesSequential) {
  RunningStat all;
  RunningStat left;
  RunningStat right;
  for (int i = 0; i < 100; ++i) {
    const double x = std::sin(i) * 10.0;
    all.Add(x);
    (i < 37 ? left : right).Add(x);
  }
  left.Merge(right);
  EXPECT_EQ(left.count(), all.count());
  EXPECT_NEAR(left.mean(), all.mean(), 1e-9);
  EXPECT_NEAR(left.variance(), all.variance(), 1e-9);
  EXPECT_EQ(left.min(), all.min());
  EXPECT_EQ(left.max(), all.max());
}

TEST(RunningStatTest, MergeWithEmptyIsNoop) {
  RunningStat stat;
  stat.Add(1.0);
  stat.Add(3.0);
  RunningStat empty;
  stat.Merge(empty);
  EXPECT_EQ(stat.count(), 2u);
  EXPECT_DOUBLE_EQ(stat.mean(), 2.0);
  empty.Merge(stat);
  EXPECT_EQ(empty.count(), 2u);
  EXPECT_DOUBLE_EQ(empty.mean(), 2.0);
}

TEST(HistogramTest, BinsAndClamping) {
  Histogram hist(0.0, 10.0, 10);
  hist.Add(0.5);
  hist.Add(9.5);
  hist.Add(-100.0);  // Clamps to first bin.
  hist.Add(100.0);   // Clamps to last bin.
  EXPECT_EQ(hist.total(), 4u);
  EXPECT_EQ(hist.bin_count(0), 2u);
  EXPECT_EQ(hist.bin_count(9), 2u);
}

TEST(HistogramTest, BinCenters) {
  Histogram hist(0.0, 1.0, 4);
  EXPECT_DOUBLE_EQ(hist.bin_center(0), 0.125);
  EXPECT_DOUBLE_EQ(hist.bin_center(3), 0.875);
}

TEST(HistogramTest, QuantileOfUniformFill) {
  Histogram hist(0.0, 100.0, 100);
  for (int i = 0; i < 100; ++i) hist.Add(i + 0.5);
  EXPECT_NEAR(hist.Quantile(0.5), 50.0, 1.5);
  EXPECT_NEAR(hist.Quantile(0.99), 99.0, 1.5);
  EXPECT_NEAR(hist.Quantile(0.01), 1.0, 1.5);
}

double SerialAdds(double x, double c, uint64_t k) {
  for (; k > 0; --k) x += c;
  return x;
}

// Bitwise equality with the serial loop: AddRepeated must reproduce every
// rounding, not merely come close.
void ExpectSerial(double x, double c, uint64_t k) {
  const double got = AddRepeated(x, c, k);
  const double want = SerialAdds(x, c, k);
  EXPECT_EQ(std::memcmp(&got, &want, sizeof(double)), 0)
      << std::hexfloat << "x=" << x << " c=" << c << " k=" << k << ": got "
      << got << ", want " << want;
}

TEST(AddRepeatedTest, MatchesSerialAddsOnRandomCases) {
  // Few-bit costs tie (50 and 12.5 among them), long-mantissa costs do not.
  const double costs[] = {50.0,  12.5,     1000.0, 0.05,   1.0 / 3.0,
                          0.5,   0.25,     1.5,    3.0,    526.864,
                          1e-3,  48.2736,  0.67,   1e6,    7.0};
  Rng rng(2024);
  for (int trial = 0; trial < 20000; ++trial) {
    double x = 0.0;
    double c = 0.0;
    switch (rng.UniformInt(4)) {
      case 0:  // A ledger that already holds whole words of one cost.
        c = costs[rng.UniformInt(std::size(costs))];
        x = static_cast<double>(rng.UniformInt(1000000)) * c;
        break;
      case 1:  // Short binary fractions far below and above x's ulp.
        c = std::ldexp(static_cast<double>(1 + rng.UniformInt(64)),
                       static_cast<int>(rng.UniformInt(20)) - 10);
        x = std::ldexp(static_cast<double>(rng.UniformInt(uint64_t{1} << 53)),
                       static_cast<int>(rng.UniformInt(80)) - 60);
        break;
      case 2:  // Arbitrary magnitudes.
        c = rng.UniformDouble() *
            std::pow(10.0, static_cast<int>(rng.UniformInt(12)) - 3);
        x = rng.UniformDouble() *
            std::pow(10.0, static_cast<int>(rng.UniformInt(20)) - 3);
        break;
      default:  // Just below a power of two: the first adds cross it.
        c = costs[rng.UniformInt(std::size(costs))];
        x = std::max(0.0, std::exp2(static_cast<double>(rng.UniformInt(60))) -
                              static_cast<double>(rng.UniformInt(4)) * c);
        break;
    }
    const uint64_t k = trial % 500 == 0 ? rng.UniformInt(2000000)
                                        : rng.UniformInt(5000);
    ExpectSerial(x, c, k);
    if (HasFailure()) return;
  }
}

TEST(AddRepeatedTest, MatchesSerialAddsOnEdgeCases) {
  // Ties at x = 2^60 (ulp 256): c / u = 0.5, 1.5, 2.5 from even and odd x.
  for (const double c : {128.0, 384.0, 640.0, 896.0}) {
    for (const double x : {0x1p60, 0x1p60 + 256.0, 0x1p60 + 512.0}) {
      ExpectSerial(x, c, 1);
      ExpectSerial(x, c, 1000);
      ExpectSerial(x, c, 1u << 22);
    }
  }
  // Binade crossings, including runs that end exactly at the top and costs
  // larger than x.
  ExpectSerial(0x1p53 - 3.0, 1.5, 100);
  ExpectSerial(0x1p53 - 2.0, 1.0, 10);
  ExpectSerial(0x1p53, 3.0, 100);
  ExpectSerial(1.0, 1e6, 5000);
  ExpectSerial(1e-3, 1e12, 3000);
  // Zero, subnormal and tiny starts.
  for (const double c : {50.0, 12.5, 0.05, 0x1p-1074, 0x1p-960}) {
    ExpectSerial(0.0, c, 70000);
    ExpectSerial(0x1p-1074, c, 1000);
    ExpectSerial(0x1p-950, c, 1000);
  }
  // An absorbed c: below half an ulp, and exactly half an ulp.
  ExpectSerial(1e20, 1.0, 1000);
  ExpectSerial(0x1p60, 128.0, 1000);
  ExpectSerial(0x1p60 + 256.0, 128.0, 1000);
  EXPECT_EQ(AddRepeated(1e20, 1.0, uint64_t{1} << 62), 1e20);
  // c == 0 returns x at once, whatever k.
  EXPECT_EQ(AddRepeated(5.0, 0.0, ~uint64_t{0}), 5.0);
  EXPECT_EQ(AddRepeated(5.0, -0.0, ~uint64_t{0}), 5.0);
  ExpectSerial(0.0, -0.0, 3);
  ExpectSerial(-0.0, 0.0, 3);
  ExpectSerial(-0.0, -0.0, 3);
  // k == 0 leaves x alone.
  ExpectSerial(3.25, 1.5, 0);
  ExpectSerial(-0.0, 1.5, 0);
  // Negative or non-finite inputs take the serial loop.
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  for (const double x : {nan, inf, -inf, -5.0, -0.0, 1e308}) {
    for (const double c : {nan, inf, -inf, -1.5, 1.5, 1e307}) {
      ExpectSerial(x, c, 7);
    }
  }
}

TEST(AddRepeatedTest, MatchesSerialAddsForEveryBackendCost) {
  // The constant adds the plain paths make: each backend's read costs, and
  // its precise write cost (undiscounted and discounted) and #P, for up to
  // 16M words (the --full size).
  std::set<double> costs;
  for (const std::string& name : approx::RegisteredBackendNames()) {
    approx::ApproxMemory::Options options;
    options.backend = name;
    options.calibration_trials = 5000;
    approx::ApproxMemory memory(options);
    const approx::PreciseCosts precise = memory.backend().precise_costs();
    costs.insert(precise.read);
    for (const double discount : {1.0, 0.8, 0.5}) {
      costs.insert(precise.write * discount);
    }
    costs.insert(precise.pv);
    auto model = memory.backend().ModelFor(approx::AllocSpec::Approx(
        memory.backend().default_approx_knob(), 1));
    ASSERT_TRUE(model.ok()) << name;
    if (*model != nullptr) costs.insert(model.value()->ReadCost());
  }
  EXPECT_GE(costs.size(), 6u);
  const uint64_t checkpoints[] = {1,       2,         63,      64,
                                  65,      1000,      65537,   uint64_t{1} << 20,
                                  3000001, uint64_t{1} << 24};
  for (const double c : costs) {
    for (const double start : {0.0, 1e6 / 3.0}) {
      double x = start;
      uint64_t done = 0;
      for (const uint64_t k : checkpoints) {
        x = SerialAdds(x, c, k - done);
        done = k;
        const double got = AddRepeated(start, c, k);
        EXPECT_EQ(std::memcmp(&got, &x, sizeof(double)), 0)
            << std::hexfloat << "c=" << c << " start=" << start
            << " k=" << k << ": got " << got << ", want " << x;
      }
    }
  }
}

}  // namespace
}  // namespace approxmem
