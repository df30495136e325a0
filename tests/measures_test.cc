#include "sortedness/measures.h"

#include <algorithm>
#include <string>
#include <utility>

#include <gtest/gtest.h>

#include "approx/approx_memory.h"
#include "common/random.h"
#include "common/thread_pool.h"
#include "sortedness/inversions.h"
#include "sortedness/lis.h"
#include "sortedness/shape.h"

namespace approxmem::sortedness {
namespace {

TEST(InversionsTest, SortedHasZero) {
  EXPECT_EQ(InversionCount({1, 2, 3, 4}), 0u);
  EXPECT_EQ(InversionCount({}), 0u);
  EXPECT_EQ(InversionCount({7}), 0u);
}

TEST(InversionsTest, ReversedHasMaximum) {
  EXPECT_EQ(InversionCount({4, 3, 2, 1}), 6u);
  EXPECT_DOUBLE_EQ(InversionRatio({4, 3, 2, 1}), 1.0);
}

TEST(InversionsTest, KnownSmallCases) {
  EXPECT_EQ(InversionCount({2, 1}), 1u);
  EXPECT_EQ(InversionCount({3, 1, 2}), 2u);
  EXPECT_EQ(InversionCount({1, 3, 2, 4}), 1u);
  EXPECT_EQ(InversionCount({5, 5, 5}), 0u);  // Equal pairs don't invert.
}

TEST(InversionsTest, MatchesBruteForce) {
  Rng rng(1);
  for (int trial = 0; trial < 100; ++trial) {
    std::vector<uint32_t> values(1 + rng.UniformInt(80));
    for (auto& v : values) v = static_cast<uint32_t>(rng.UniformInt(16));
    EXPECT_EQ(InversionCount(values), InversionCountBruteForce(values));
  }
}

// The LIS and inversion kernels skip work on in-order stretches (append
// past the last pile tail, no merge across ordered halves). Shapes that
// take those shortcuts all the time, never, or half the time must still
// match the O(n^2) references exactly.
TEST(SortednessKernelTest, FastPathsMatchBruteForceOnShapedInputs) {
  Rng rng(3);
  for (const size_t n : {size_t{0}, size_t{1}, size_t{2}, size_t{17},
                         size_t{500}, size_t{2000}}) {
    std::vector<std::pair<const char*, std::vector<uint32_t>>> shapes;
    shapes.emplace_back("nearly_sorted", NearlySortedKeys(n, n / 50 + 1, rng));
    std::vector<uint32_t> reversed = NearlySortedKeys(n, 0, rng);
    std::reverse(reversed.begin(), reversed.end());
    shapes.emplace_back("reversed", reversed);
    std::vector<uint32_t> duplicates(n);
    for (uint32_t& v : duplicates) v = static_cast<uint32_t>(rng.UniformInt(4));
    shapes.emplace_back("duplicate_heavy", duplicates);
    std::vector<uint32_t> runs(n);
    for (size_t i = 0; i < n; ++i) runs[i] = static_cast<uint32_t>(i % 64);
    shapes.emplace_back("sorted_runs", runs);
    shapes.emplace_back("all_equal", std::vector<uint32_t>(n, 9));
    for (const auto& [name, values] : shapes) {
      SCOPED_TRACE(std::string(name) + " n=" + std::to_string(n));
      const size_t lis = LongestNonDecreasingSubsequenceBruteForce(values);
      EXPECT_EQ(LongestNonDecreasingSubsequence(values), lis);
      const std::vector<uint8_t> member =
          LongestNonDecreasingMembership(values);
      size_t marked = 0;
      uint32_t tail = 0;
      for (size_t i = 0; i < n; ++i) {
        if (member[i] == 0) continue;
        if (marked++ > 0) {
          EXPECT_GE(values[i], tail);
        }
        tail = values[i];
      }
      EXPECT_EQ(marked, lis);
      EXPECT_EQ(InversionCount(values), InversionCountBruteForce(values));
    }
  }
}

TEST(InversionsTest, RandomSequenceRatioNearHalf) {
  Rng rng(2);
  std::vector<uint32_t> values(5000);
  for (auto& v : values) v = rng.NextU32();
  EXPECT_NEAR(InversionRatio(values), 0.5, 0.03);
}

TEST(MeasuresTest, IsSorted) {
  EXPECT_TRUE(IsSorted({}));
  EXPECT_TRUE(IsSorted({1}));
  EXPECT_TRUE(IsSorted({1, 1, 2}));
  EXPECT_FALSE(IsSorted({2, 1}));
}

TEST(MeasuresTest, ReportConsistency) {
  const std::vector<uint32_t> values = {1, 6, 35, 33, 96, 928, 168, 528};
  const SortednessReport report = Measure(values);
  EXPECT_EQ(report.n, 8u);
  EXPECT_EQ(report.rem, 2u);
  EXPECT_DOUBLE_EQ(report.rem_ratio, 0.25);
  EXPECT_EQ(report.inversions, InversionCount(values));
  EXPECT_FALSE(report.sorted);

  std::vector<uint32_t> sorted = values;
  std::sort(sorted.begin(), sorted.end());
  const SortednessReport sorted_report = Measure(sorted);
  EXPECT_TRUE(sorted_report.sorted);
  EXPECT_EQ(sorted_report.rem, 0u);
  EXPECT_EQ(sorted_report.inversions, 0u);
}

TEST(MeasuresTest, ReportRatioEqualsStandaloneInversionRatioExactly) {
  // Measure counts inversions once and derives the ratio from that count;
  // the result must be the same double the standalone call computes.
  Rng rng(11);
  for (const size_t n : {0u, 1u, 2u, 7u, 1000u, 4097u}) {
    std::vector<uint32_t> values(n);
    for (auto& v : values) v = static_cast<uint32_t>(rng.UniformInt(64));
    const SortednessReport report = Measure(values);
    EXPECT_EQ(report.inversion_ratio, InversionRatio(values)) << "n=" << n;
    EXPECT_EQ(report.inversion_ratio,
              InversionRatio(report.inversions, report.n))
        << "n=" << n;
  }
}

TEST(MeasuresTest, ReportFromArrayIncludesErrorRate) {
  approx::ApproxMemory::Options options;
  options.calibration_trials = 20000;
  approx::ApproxMemory memory(options);
  approx::ApproxArrayU32 array = memory.NewApproxArray(5000, 0.12);
  Rng rng(3);
  for (size_t i = 0; i < array.size(); ++i) array.Set(i, rng.NextU32());
  const SortednessReport report = Measure(array);
  EXPECT_GT(report.error_rate, 0.1);
  EXPECT_DOUBLE_EQ(report.error_rate, array.ErrorRate());
}

TEST(MeasuresTest, PooledMatchesSerial) {
  approx::ApproxMemory::Options options;
  options.calibration_trials = 20000;
  approx::ApproxMemory memory(options);
  Rng rng(5);
  // Random words in approximate memory (a non-zero error rate), then
  // sorted, reversed, all-equal and tiny inputs in precise memory.
  std::vector<std::pair<std::string, approx::ApproxArrayU32>> cases;
  approx::ApproxArrayU32 noisy = memory.NewApproxArray(5003, 0.12);
  for (size_t i = 0; i < noisy.size(); ++i) noisy.Set(i, rng.NextU32());
  cases.emplace_back("random", std::move(noisy));
  const auto precise = [&](const std::vector<uint32_t>& values) {
    approx::ApproxArrayU32 array = memory.NewPreciseArray(values.size());
    array.Store(values);
    return array;
  };
  std::vector<uint32_t> sorted(3001);
  for (auto& v : sorted) v = static_cast<uint32_t>(rng.UniformInt(500));
  std::sort(sorted.begin(), sorted.end());
  cases.emplace_back("sorted", precise(sorted));
  cases.emplace_back("reversed",
                     precise(std::vector<uint32_t>(sorted.rbegin(),
                                                   sorted.rend())));
  cases.emplace_back("all-equal", precise(std::vector<uint32_t>(999, 42)));
  for (size_t n = 0; n < 8; ++n) {
    std::vector<uint32_t> tiny(n);
    for (auto& v : tiny) v = static_cast<uint32_t>(rng.UniformInt(4));
    cases.emplace_back("n=" + std::to_string(n), precise(tiny));
  }
  ThreadPool pool1(1);
  ThreadPool pool2(2);
  ThreadPool pool4(4);
  ThreadPool pool8(8);
  for (const auto& [name, array] : cases) {
    SCOPED_TRACE(name);
    const std::vector<uint32_t> values = array.Snapshot();
    const SortednessReport serial = Measure(array);
    EXPECT_EQ(serial.rem, values.size() -
                              LongestNonDecreasingSubsequenceBruteForce(values));
    EXPECT_EQ(serial.inversions, InversionCountBruteForce(values));
    for (ThreadPool* pool : {&pool1, &pool2, &pool4, &pool8}) {
      SCOPED_TRACE("threads=" + std::to_string(pool->thread_count()));
      const SortednessReport pooled = Measure(array, pool);
      EXPECT_EQ(pooled.n, serial.n);
      EXPECT_EQ(pooled.rem, serial.rem);
      EXPECT_EQ(pooled.rem_ratio, serial.rem_ratio);
      EXPECT_EQ(pooled.error_rate, serial.error_rate);
      EXPECT_EQ(pooled.inversions, serial.inversions);
      EXPECT_EQ(pooled.inversion_ratio, serial.inversion_ratio);
      EXPECT_EQ(pooled.sorted, serial.sorted);
    }
  }
  // Not vacuous: the random case has errors and is far from sorted.
  const SortednessReport random = Measure(cases[0].second, &pool2);
  EXPECT_GT(random.error_rate, 0.0);
  EXPECT_GT(random.inversions, 0u);
}

TEST(MeasuresTest, IsPermutationOf) {
  EXPECT_TRUE(IsPermutationOf({3, 1, 2}, {1, 2, 3}));
  EXPECT_TRUE(IsPermutationOf({}, {}));
  EXPECT_FALSE(IsPermutationOf({1, 2}, {1, 2, 3}));
  EXPECT_FALSE(IsPermutationOf({1, 1, 2}, {1, 2, 2}));
}

TEST(ShapeTest, SortedSequenceHasNoDisplacement) {
  const ShapeSummary summary = SummarizeShape({1, 2, 3, 4, 5});
  EXPECT_DOUBLE_EQ(summary.displaced_fraction, 0.0);
  EXPECT_DOUBLE_EQ(summary.deviation_max, 0.0);
}

TEST(ShapeTest, RandomSequenceIsMostlyDisplaced) {
  Rng rng(4);
  std::vector<uint32_t> values(10000);
  for (auto& v : values) v = rng.NextU32();
  const ShapeSummary summary = SummarizeShape(values);
  EXPECT_GT(summary.displaced_fraction, 0.99);
  EXPECT_GT(summary.deviation_p50, 0.05);
}

TEST(ShapeTest, SparklineOfSortedDataIsMonotone) {
  std::vector<uint32_t> values(6400);
  for (size_t i = 0; i < values.size(); ++i) {
    values[i] = static_cast<uint32_t>(i * (4294967295.0 / values.size()));
  }
  const std::string line = ShapeSparkline(values, 64);
  ASSERT_EQ(line.size(), 64u);
  EXPECT_TRUE(std::is_sorted(line.begin(), line.end()));
  EXPECT_EQ(line.front(), '0');
  EXPECT_EQ(line.back(), '9');
}

TEST(ShapeTest, CsvExportDownsamples) {
  std::vector<uint32_t> values(10000, 1);
  const std::string path = ::testing::TempDir() + "/shape_test.csv";
  ASSERT_TRUE(WriteShapeCsv(values, path, 100));
  std::FILE* f = std::fopen(path.c_str(), "r");
  ASSERT_NE(f, nullptr);
  int lines = 0;
  int c;
  while ((c = std::fgetc(f)) != EOF) {
    if (c == '\n') ++lines;
  }
  std::fclose(f);
  EXPECT_GE(lines, 100);
  EXPECT_LE(lines, 102);  // Header + ~100 samples.
}

}  // namespace
}  // namespace approxmem::sortedness
