// End-to-end scenarios crossing every module: engine sweeps that reproduce
// the paper's qualitative claims at reduced scale, a real sort on the
// banked cache+PCM substrate, and exact-vs-fast agreement of the whole
// pipeline.
#include <algorithm>
#include <string>

#include <gtest/gtest.h>

#include "approx/approx_memory.h"
#include "core/engine.h"
#include "core/workload.h"
#include "mem/memory_system.h"
#include "refine/cost_model.h"
#include "sort/sort_common.h"

namespace approxmem {
namespace {

core::EngineOptions FastOptions() {
  core::EngineOptions options;
  options.calibration_trials = 20000;
  options.seed = 77;
  return options;
}

TEST(IntegrationTest, Figure4Shape_SortednessDegradesWithT) {
  core::ApproxSortEngine engine(FastOptions());
  const auto keys = core::MakeKeys(core::WorkloadKind::kUniform, 50000, 1);
  const sort::AlgorithmId quicksort{sort::SortKind::kQuicksort, 0};
  double previous_rem = -1.0;
  double previous_wr = -1.0;
  for (double t : {0.03, 0.055, 0.08, 0.1}) {
    const auto result = engine.SortApproxOnly(keys, quicksort, t);
    ASSERT_TRUE(result.ok());
    EXPECT_GE(result->sortedness.rem_ratio, previous_rem) << "t=" << t;
    EXPECT_GE(result->write_reduction, previous_wr) << "t=" << t;
    previous_rem = result->sortedness.rem_ratio;
    previous_wr = result->write_reduction;
  }
  // The end points of Figure 4: nearly sorted at 0.03, chaos at 0.1.
  EXPECT_GT(previous_rem, 0.3);
}

TEST(IntegrationTest, Figure9Shape_ReductionPeaksInTheMiddle) {
  core::ApproxSortEngine engine(FastOptions());
  const auto keys = core::MakeKeys(core::WorkloadKind::kUniform, 100000, 2);
  const sort::AlgorithmId lsd3{sort::SortKind::kLsdRadix, 3};
  const auto low = engine.SortApproxRefine(keys, lsd3, 0.03);
  const auto mid = engine.SortApproxRefine(keys, lsd3, 0.055);
  const auto high = engine.SortApproxRefine(keys, lsd3, 0.09);
  ASSERT_TRUE(low.ok() && mid.ok() && high.ok());
  EXPECT_GT(mid->write_reduction, low->write_reduction);
  EXPECT_GT(mid->write_reduction, high->write_reduction);
  EXPECT_GT(mid->write_reduction, 0.0);
  EXPECT_LT(high->write_reduction, 0.0);
}

TEST(IntegrationTest, Figure10Shape_GainGrowsWithN) {
  core::ApproxSortEngine engine(FastOptions());
  const sort::AlgorithmId quicksort{sort::SortKind::kQuicksort, 0};
  double previous = -1e9;
  for (size_t n : {1600u, 16000u, 160000u}) {
    const auto keys = core::MakeKeys(core::WorkloadKind::kUniform, n, 3);
    const auto outcome = engine.SortApproxRefine(keys, quicksort, 0.055);
    ASSERT_TRUE(outcome.ok());
    EXPECT_GT(outcome->write_reduction, previous) << "n=" << n;
    previous = outcome->write_reduction;
  }
}

TEST(IntegrationTest, CostModelTracksMeasurementNearSweetSpot) {
  core::ApproxSortEngine engine(FastOptions());
  const auto keys = core::MakeKeys(core::WorkloadKind::kUniform, 200000, 4);
  for (const auto& algorithm :
       {sort::AlgorithmId{sort::SortKind::kQuicksort, 0},
        sort::AlgorithmId{sort::SortKind::kLsdRadix, 3}}) {
    const auto outcome = engine.SortApproxRefine(keys, algorithm, 0.055);
    ASSERT_TRUE(outcome.ok());
    EXPECT_NEAR(outcome->write_reduction,
                outcome->predicted_write_reduction, 0.06)
        << algorithm.Name();
  }
}

TEST(IntegrationTest, TraceReplayThroughMemorySystem) {
  // Run a real quicksort on the banked backend, whose cache hierarchy +
  // banked PCM substrate sees every array access as it happens.
  approx::ApproxMemory::Options options;
  options.calibration_trials = 20000;
  options.backend = std::string(approx::kBankedPcmBackendName);
  approx::ApproxMemory memory(options);

  const size_t n = 20000;
  const auto keys = core::MakeKeys(core::WorkloadKind::kUniform, n, 5);
  approx::ApproxArrayU32 array = memory.NewPreciseArray(n);
  array.Store(keys);
  sort::SortSpec spec;
  spec.keys = &array;
  Rng rng(6);
  ASSERT_TRUE(
      sort::RunSort(spec, {sort::SortKind::kQuicksort, 0}, rng).ok());

  const mem::MemorySystemStats stats =
      memory.backend().cost_system()->Finish();
  ASSERT_GT(stats.reads + stats.writes, 2 * n);
  EXPECT_EQ(stats.reads, array.stats().word_reads);
  EXPECT_EQ(stats.writes, array.stats().word_writes);
  // Write-through: every write is serviced by PCM at 1us.
  EXPECT_DOUBLE_EQ(stats.total_write_latency_ns,
                   static_cast<double>(stats.writes) * 1000.0);
  // The sort has locality: most reads hit cache.
  EXPECT_GT(stats.l1_read_hits + stats.l2_read_hits + stats.l3_read_hits,
            stats.memory_reads);
}

TEST(IntegrationTest, ExactModeRefineAgreesWithFastMode) {
  const auto keys = core::MakeKeys(core::WorkloadKind::kUniform, 20000, 7);
  auto run = [&keys](approx::SimulationMode mode) {
    core::EngineOptions options = FastOptions();
    options.mode = mode;
    core::ApproxSortEngine engine(options);
    const auto outcome = engine.SortApproxRefine(
        keys, sort::AlgorithmId{sort::SortKind::kQuicksort, 0}, 0.055);
    EXPECT_TRUE(outcome.ok());
    EXPECT_TRUE(outcome->refine.verified());
    return outcome->write_reduction;
  };
  const double fast = run(approx::SimulationMode::kFast);
  const double exact = run(approx::SimulationMode::kExact);
  EXPECT_NEAR(fast, exact, 0.03);
}

TEST(IntegrationTest, SkewedAndNearlySortedWorkloadsAlsoVerify) {
  core::ApproxSortEngine engine(FastOptions());
  for (const auto workload :
       {core::WorkloadKind::kSkewed, core::WorkloadKind::kNearlySorted,
        core::WorkloadKind::kReversed}) {
    const auto keys = core::MakeKeys(workload, 30000, 8);
    for (const auto& algorithm : sort::HeadlineAlgorithms()) {
      std::vector<uint32_t> out;
      const auto outcome =
          engine.SortApproxRefine(keys, algorithm, 0.055, &out);
      ASSERT_TRUE(outcome.ok());
      EXPECT_TRUE(outcome->refine.verified())
          << algorithm.Name() << " on " << core::WorkloadName(workload);
      EXPECT_TRUE(std::is_sorted(out.begin(), out.end()));
    }
  }
}

}  // namespace
}  // namespace approxmem
