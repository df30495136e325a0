#include "core/engine.h"

#include <algorithm>
#include <limits>
#include <memory>

#include <gtest/gtest.h>

#include "approx/spintronic.h"
#include "core/workload.h"
#include "testing/fault_injection.h"

namespace approxmem::core {
namespace {

EngineOptions FastOptions() {
  EngineOptions options;
  options.calibration_trials = 20000;
  options.seed = 31;
  return options;
}

EngineOptions SpintronicOptions() {
  EngineOptions options = FastOptions();
  options.backend = std::string(approx::kSpintronicBackendName);
  return options;
}

TEST(EngineTest, ApproxOnlyNearPreciseTIsSorted) {
  ApproxSortEngine engine(FastOptions());
  const auto keys = MakeKeys(WorkloadKind::kUniform, 20000, 1);
  const auto result = engine.SortApproxOnly(
      keys, sort::AlgorithmId{sort::SortKind::kQuicksort, 0}, 0.03);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->sortedness.sorted);
  EXPECT_EQ(result->sortedness.rem, 0u);
  // Small but positive write reduction (p(0.03) < 1).
  EXPECT_GT(result->write_reduction, 0.0);
}

TEST(EngineTest, ApproxOnlySweetSpotTradesSortednessForLatency) {
  ApproxSortEngine engine(FastOptions());
  const auto keys = MakeKeys(WorkloadKind::kUniform, 100000, 2);
  const auto result = engine.SortApproxOnly(
      keys, sort::AlgorithmId{sort::SortKind::kQuicksort, 0}, 0.055);
  ASSERT_TRUE(result.ok());
  // Section 3.4: ~33% latency reduction with a ~95+% sorted sequence.
  EXPECT_GT(result->write_reduction, 0.25);
  EXPECT_LT(result->sortedness.rem_ratio, 0.05);
  EXPECT_GT(result->sortedness.rem, 0u);
}

TEST(EngineTest, ApproxOnlyOutputsTheApproximateArray) {
  ApproxSortEngine engine(FastOptions());
  const auto keys = MakeKeys(WorkloadKind::kUniform, 5000, 3);
  std::vector<uint32_t> output;
  const auto result = engine.SortApproxOnly(
      keys, sort::AlgorithmId{sort::SortKind::kLsdRadix, 6}, 0.1, &output);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(output.size(), keys.size());
  EXPECT_FALSE(std::is_sorted(output.begin(), output.end()));
}

TEST(EngineTest, MergesortDegradesWorstAtModerateT) {
  ApproxSortEngine engine(FastOptions());
  const auto keys = MakeKeys(WorkloadKind::kUniform, 50000, 4);
  const auto merge = engine.SortApproxOnly(
      keys, sort::AlgorithmId{sort::SortKind::kMergesort, 0}, 0.055);
  const auto quick = engine.SortApproxOnly(
      keys, sort::AlgorithmId{sort::SortKind::kQuicksort, 0}, 0.055);
  ASSERT_TRUE(merge.ok());
  ASSERT_TRUE(quick.ok());
  // Section 3.5's headline phenomenon.
  EXPECT_GT(merge->sortedness.rem_ratio,
            10 * quick->sortedness.rem_ratio);
}

TEST(EngineTest, RefineVerifiedAndReductionAtSweetSpot) {
  ApproxSortEngine engine(FastOptions());
  const auto keys = MakeKeys(WorkloadKind::kUniform, 100000, 5);
  std::vector<uint32_t> out_keys;
  std::vector<uint32_t> out_ids;
  const auto outcome = engine.SortApproxRefine(
      keys, sort::AlgorithmId{sort::SortKind::kLsdRadix, 3}, 0.055,
      &out_keys, &out_ids);
  ASSERT_TRUE(outcome.ok());
  EXPECT_TRUE(outcome->refine.verified());
  EXPECT_TRUE(outcome->baseline.verified);
  EXPECT_TRUE(std::is_sorted(out_keys.begin(), out_keys.end()));
  EXPECT_GT(outcome->write_reduction, 0.02);
  // The analytic model should be in the same regime as the measurement.
  EXPECT_GT(outcome->predicted_write_reduction, 0.0);
}

TEST(EngineTest, RefineMergesortNeverWins) {
  ApproxSortEngine engine(FastOptions());
  const auto keys = MakeKeys(WorkloadKind::kUniform, 50000, 6);
  for (double t : {0.03, 0.055, 0.08}) {
    const auto outcome = engine.SortApproxRefine(
        keys, sort::AlgorithmId{sort::SortKind::kMergesort, 0}, t);
    ASSERT_TRUE(outcome.ok());
    EXPECT_TRUE(outcome->refine.verified());
    EXPECT_LT(outcome->write_reduction, 0.01) << "t=" << t;
  }
}

// A bump-allocating placement policy whose only job here is its identity.
class BumpPlacement final : public approx::PlacementPolicy {
 public:
  uint64_t PlaceSpan(uint64_t span) override {
    const uint64_t base = next_;
    next_ += span;
    return base;
  }
  void OnQuarantine(uint64_t /*base*/, uint64_t /*span*/) override {}

 private:
  uint64_t next_ = 0;
};

TEST(EngineTest, MemoryOptionsReachTheSubstrate) {
  // Every ApproxMemory::Options field set away from its default on the
  // engine options must arrive unchanged at the engine's hybrid memory.
  testing::FaultInjector injector(testing::FaultPlan{});
  BumpPlacement placement;
  EngineOptions options;
  options.backend = std::string(approx::kBankedPcmBackendName);
  options.mlc.beta = 0.04;
  options.mode = approx::SimulationMode::kExact;
  options.calibration_trials = 1234;
  options.seed = 99;
  options.shared_calibration =
      std::make_shared<mlc::CalibrationCache>(options.mlc, 1234, 7);
  options.sequential_write_discount = 0.5;
  options.fault_hook = &injector;
  options.health.enabled = true;
  options.placement = &placement;

  ApproxSortEngine engine(options);
  const approx::ApproxMemory::Options& memory = engine.memory().options();
  EXPECT_EQ(memory.backend, approx::kBankedPcmBackendName);
  EXPECT_EQ(engine.memory().backend().name(), approx::kBankedPcmBackendName);
  EXPECT_DOUBLE_EQ(memory.mlc.beta, 0.04);
  EXPECT_EQ(memory.mode, approx::SimulationMode::kExact);
  EXPECT_EQ(memory.calibration_trials, 1234u);
  EXPECT_EQ(memory.seed, 99u);
  EXPECT_EQ(memory.shared_calibration, options.shared_calibration);
  EXPECT_EQ(&engine.memory().calibration(), options.shared_calibration.get());
  EXPECT_DOUBLE_EQ(memory.sequential_write_discount, 0.5);
  EXPECT_EQ(memory.fault_hook, &injector);
  EXPECT_TRUE(memory.health.enabled);
  EXPECT_TRUE(engine.memory().health().enabled());
  EXPECT_EQ(memory.placement, &placement);
}

TEST(EngineTest, RefineRejectsNanKnob) {
  ApproxSortEngine engine(FastOptions());
  const auto keys = MakeKeys(WorkloadKind::kUniform, 100, 7);
  const auto outcome = engine.SortApproxRefine(
      keys, sort::AlgorithmId{sort::SortKind::kLsdRadix, 3},
      std::numeric_limits<double>::quiet_NaN());
  ASSERT_FALSE(outcome.ok());
  EXPECT_EQ(outcome.status().code(), StatusCode::kInvalidArgument);
  ApproxSortEngine spintronic(SpintronicOptions());
  const auto spin = spintronic.SortApproxRefine(
      keys, sort::AlgorithmId{sort::SortKind::kLsdRadix, 3},
      std::numeric_limits<double>::quiet_NaN());
  ASSERT_FALSE(spin.ok());
  EXPECT_EQ(spin.status().code(), StatusCode::kInvalidArgument);
}

TEST(EngineTest, RefineRejectsInvalidT) {
  ApproxSortEngine engine(FastOptions());
  const auto keys = MakeKeys(WorkloadKind::kUniform, 100, 7);
  EXPECT_FALSE(engine
                   .SortApproxRefine(
                       keys, sort::AlgorithmId{sort::SortKind::kQuicksort, 0},
                       0.2)
                   .ok());
  EXPECT_FALSE(engine
                   .SortApproxOnly(
                       keys, sort::AlgorithmId{sort::SortKind::kQuicksort, 0},
                       -0.1)
                   .ok());
}

TEST(EngineTest, PvRatioMatchesPaperAnchors) {
  ApproxSortEngine engine(FastOptions());
  EXPECT_DOUBLE_EQ(engine.PvRatio(0.025), 1.0);
  EXPECT_NEAR(engine.PvRatio(0.055), 0.66, 0.06);
  EXPECT_NEAR(engine.PvRatio(0.1), 0.50, 0.06);
}

TEST(EngineTest, SpintronicOnlyLowErrorPointStaysSorted) {
  ApproxSortEngine engine(SpintronicOptions());
  const auto keys = MakeKeys(WorkloadKind::kUniform, 20000, 8);
  const auto configs = approx::PaperSpintronicConfigs();
  const auto result = engine.SortApproxOnly(
      keys, sort::AlgorithmId{sort::SortKind::kQuicksort, 0},
      configs[0].bit_error_prob);
  ASSERT_TRUE(result.ok());
  EXPECT_LT(result->sortedness.rem_ratio, 0.01);
  EXPECT_NEAR(result->write_reduction, 0.05, 0.01);  // 5% energy saving.
}

TEST(EngineTest, SpintronicRefineVerifiedAcrossOperatingPoints) {
  ApproxSortEngine engine(SpintronicOptions());
  const auto keys = MakeKeys(WorkloadKind::kUniform, 20000, 9);
  for (const auto& config : approx::PaperSpintronicConfigs()) {
    const auto outcome = engine.SortApproxRefine(
        keys, sort::AlgorithmId{sort::SortKind::kMsdRadix, 6},
        config.bit_error_prob);
    ASSERT_TRUE(outcome.ok());
    EXPECT_TRUE(outcome->refine.verified())
        << approx::SpintronicLabel(config);
  }
}

TEST(EngineTest, RecommendationUsesCostModel) {
  ApproxSortEngine engine(FastOptions());
  const sort::AlgorithmId lsd{sort::SortKind::kLsdRadix, 3};
  EXPECT_TRUE(engine.RecommendApproxRefine(lsd, 1 << 22, 0.055, 1000));
  EXPECT_FALSE(engine.RecommendApproxRefine(lsd, 1 << 22, 0.055, 1 << 22));
  EXPECT_FALSE(engine.RecommendApproxRefine(lsd, 1 << 22, 0.025, 0));
}

TEST(EngineTest, DeterministicAcrossEngineInstances) {
  const auto keys = MakeKeys(WorkloadKind::kUniform, 30000, 10);
  auto run = [&keys]() {
    ApproxSortEngine engine(FastOptions());
    const auto result = engine.SortApproxOnly(
        keys, sort::AlgorithmId{sort::SortKind::kQuicksort, 0}, 0.07);
    EXPECT_TRUE(result.ok());
    return std::make_pair(result->sortedness.rem,
                          result->approx_stats.write_cost);
  };
  EXPECT_EQ(run(), run());
}

TEST(EngineTest, SequentialDiscountRaisesQuicksortGain) {
  // The Section 5 extension: quicksort's approx stage writes randomly but
  // the refine stage writes sequentially, so cheaper sequential writes
  // tilt the balance toward approx-refine.
  const auto keys = MakeKeys(WorkloadKind::kUniform, 50000, 11);
  auto run = [&keys](double discount) {
    EngineOptions options = FastOptions();
    options.sequential_write_discount = discount;
    ApproxSortEngine engine(options);
    const auto outcome = engine.SortApproxRefine(
        keys, sort::AlgorithmId{sort::SortKind::kQuicksort, 0}, 0.055);
    EXPECT_TRUE(outcome.ok());
    return outcome->write_reduction;
  };
  EXPECT_GT(run(0.5), run(1.0) + 0.02);
}

TEST(EngineTest, ExactAndFastPvRatiosAgree) {
  EngineOptions fast_options = FastOptions();
  EngineOptions exact_options = FastOptions();
  exact_options.mode = approx::SimulationMode::kExact;
  ApproxSortEngine fast_engine(fast_options);
  ApproxSortEngine exact_engine(exact_options);
  // p(t) comes from the shared calibration either way.
  EXPECT_NEAR(fast_engine.PvRatio(0.055), exact_engine.PvRatio(0.055), 0.02);
}

TEST(EngineTest, SpintronicEnergyBreakdownSumsToTotal) {
  ApproxSortEngine engine(SpintronicOptions());
  const auto keys = MakeKeys(WorkloadKind::kUniform, 10000, 12);
  const auto outcome = engine.SortApproxRefine(
      keys, sort::AlgorithmId{sort::SortKind::kLsdRadix, 6},
      approx::PaperSpintronicConfigs()[2].bit_error_prob);
  ASSERT_TRUE(outcome.ok());
  EXPECT_NEAR(outcome->refine.TotalWriteCost(),
              outcome->refine.ApproxStageWriteCost() +
                  outcome->refine.RefineStageWriteCost(),
              1e-9);
  // Spintronic writes have no P&V loop: wear proxy stays zero.
  EXPECT_DOUBLE_EQ(outcome->refine.sort_approx.pv_iterations, 0.0);
}

TEST(EngineTest, PcmWearTracksLatencyRatio) {
  ApproxSortEngine engine(FastOptions());
  const auto keys = MakeKeys(WorkloadKind::kUniform, 30000, 13);
  const auto outcome = engine.SortApproxRefine(
      keys, sort::AlgorithmId{sort::SortKind::kQuicksort, 0}, 0.055);
  ASSERT_TRUE(outcome.ok());
  // Approximate-stage wear per write ~ p(t) x precise wear per write.
  const auto& approx_stats = outcome->refine.sort_approx;
  const auto& precise_stats = outcome->baseline.keys;
  const double approx_per_write =
      approx_stats.pv_iterations /
      static_cast<double>(approx_stats.word_writes);
  const double precise_per_write =
      precise_stats.pv_iterations /
      static_cast<double>(precise_stats.word_writes);
  EXPECT_NEAR(approx_per_write / precise_per_write, engine.PvRatio(0.055),
              0.03);
}

}  // namespace
}  // namespace approxmem::core
