// Differential tests: engine workloads vs. the precise golden model,
// clean and under injected faults.
#include "testing/differential_oracle.h"

#include <algorithm>

#include <gtest/gtest.h>

#include "core/engine.h"
#include "dbops/aggregate.h"
#include "dbops/join.h"
#include "extsort/external_sort.h"
#include "testing/fault_injection.h"
#include "testing/golden.h"

namespace approxmem::testing {
namespace {

OracleCase BaseCase() {
  OracleCase oracle_case;
  oracle_case.seed = 4242;
  oracle_case.n = 220;
  oracle_case.paper_t = 55;
  oracle_case.algorithm = sort::AlgorithmId{sort::SortKind::kLsdRadix, 4};
  oracle_case.shape = InputShape::kUniform;
  return oracle_case;
}

TEST(differential_oracle, CleanRunsPassForEveryKindAndT) {
  for (const sort::SortKind kind :
       {sort::SortKind::kQuicksort, sort::SortKind::kMergesort,
        sort::SortKind::kLsdRadix, sort::SortKind::kMsdRadix,
        sort::SortKind::kLsdHistogram, sort::SortKind::kMsdHistogram}) {
    for (const int paper_t : {0, 55, 100}) {
      OracleCase oracle_case = BaseCase();
      oracle_case.algorithm = sort::AlgorithmId{kind, 5};
      oracle_case.paper_t = paper_t;
      oracle_case.shape = InputShape::kZipf;
      const OracleReport report =
          RunDifferentialOracle(oracle_case, OracleOptions{});
      EXPECT_TRUE(report.ok) << report.FailureSummary();
    }
  }
}

TEST(differential_oracle, SameCaseTwiceGivesIdenticalDigest) {
  OracleCase oracle_case = BaseCase();
  oracle_case.paper_t = 100;
  oracle_case.shape = InputShape::kAdversarialPivot;
  const OracleReport first =
      RunDifferentialOracle(oracle_case, OracleOptions{});
  const OracleReport second =
      RunDifferentialOracle(oracle_case, OracleOptions{});
  EXPECT_EQ(first.digest, second.digest);
  EXPECT_EQ(first.ok, second.ok);
  EXPECT_EQ(first.rem_estimate, second.rem_estimate);
}

TEST(differential_oracle, ApproxDomainFaultStormNeverBreaksRefine) {
  for (uint64_t seed = 1; seed <= 6; ++seed) {
    OracleCase oracle_case = BaseCase();
    oracle_case.seed = seed * 1000003;
    oracle_case.algorithm = sort::AlgorithmId{
        seed % 2 == 0 ? sort::SortKind::kMsdHistogram
                      : sort::SortKind::kQuicksort,
        6};
    FaultPlan plan = FaultPlan::ApproxStorm(oracle_case.seed);
    FaultInjector injector(plan);
    OracleOptions options;
    options.injector = &injector;
    const OracleReport report = RunDifferentialOracle(oracle_case, options);
    EXPECT_TRUE(report.ok) << report.FailureSummary();
  }
}

// The oracle's own negative test: a stuck-at cell inside precise memory
// violates the refine guarantee's one assumption, and the oracle MUST
// notice. A harness that stays green here would be vacuous.
TEST(differential_oracle, StuckAtInPreciseMemoryIsCaught) {
  OracleCase oracle_case = BaseCase();
  FaultPlan plan;
  plan.seed = oracle_case.seed;
  StuckAtFault stuck;
  stuck.domain = FaultDomain::kPreciseOnly;
  stuck.mask = 0x10u;
  stuck.value = 0x10u;
  plan.stuck_at.push_back(stuck);
  FaultInjector injector(plan);
  OracleOptions options;
  options.injector = &injector;

  const OracleReport report = RunDifferentialOracle(oracle_case, options);
  EXPECT_FALSE(report.ok);
  EXPECT_GT(injector.injected_write_faults() + injector.injected_read_faults(),
            0u);
  // Stuck-at forcing is idempotent on values that were read back through
  // the same stuck region, so the measured write ledgers can stay clean;
  // the corruption must surface through the output invariants instead.
  bool output_invariant_failed = false;
  for (const OracleFailure& failure : report.failures) {
    if (failure.invariant == "golden-keys" ||
        failure.invariant == "ids-permutation" ||
        failure.invariant == "refine-verified") {
      output_invariant_failed = true;
    }
  }
  EXPECT_TRUE(output_invariant_failed) << report.FailureSummary();
}

// Non-idempotent corruption (random bit flips on precise writes) must be
// flagged by the cost-accounting invariant: the ledgers' corrupted-write
// counters are the precise domain's canary.
TEST(differential_oracle, DriftBurstInPreciseMemoryBreaksCostAccounting) {
  OracleCase oracle_case = BaseCase();
  FaultPlan plan;
  plan.seed = oracle_case.seed;
  DriftBurstFault burst;
  burst.domain = FaultDomain::kPreciseOnly;
  burst.start_write = 0;
  burst.length = 1u << 20;  // Effectively the whole run.
  burst.probability = 0.05;
  plan.drift_bursts.push_back(burst);
  FaultInjector injector(plan);
  OracleOptions options;
  options.injector = &injector;

  const OracleReport report = RunDifferentialOracle(oracle_case, options);
  EXPECT_FALSE(report.ok);
  EXPECT_GT(injector.injected_write_faults(), 0u);
  bool accounting_failed = false;
  for (const OracleFailure& failure : report.failures) {
    if (failure.invariant == "precise-cost-accounting") {
      accounting_failed = true;
    }
  }
  EXPECT_TRUE(accounting_failed) << report.FailureSummary();
}

// ---- dbops differentials: exact results under approx-domain faults ----

TEST(differential_oracle, GroupByMatchesGoldenUnderApproxFaults) {
  const size_t n = 500;
  const std::vector<uint32_t> keys = MakeInput(InputShape::kZipf, n, 31);
  const std::vector<uint32_t> values = MakeInput(InputShape::kUniform, n, 32);

  FaultPlan plan = FaultPlan::ApproxStorm(77);
  FaultInjector injector(plan);
  core::EngineOptions engine_options;
  engine_options.calibration_trials = 5000;
  engine_options.fault_hook = &injector;
  core::ApproxSortEngine engine(engine_options);

  dbops::GroupByOptions options;
  const auto result = dbops::GroupByAggregate(engine, keys, values, options);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_TRUE(result->verified);

  const std::vector<dbops::GroupRow> golden = GoldenGroupBy(keys, values);
  ASSERT_EQ(result->groups.size(), golden.size());
  for (size_t i = 0; i < golden.size(); ++i) {
    EXPECT_EQ(result->groups[i].group_key, golden[i].group_key);
    EXPECT_EQ(result->groups[i].count, golden[i].count);
    EXPECT_EQ(result->groups[i].sum, golden[i].sum);
    EXPECT_EQ(result->groups[i].min, golden[i].min);
    EXPECT_EQ(result->groups[i].max, golden[i].max);
  }
}

TEST(differential_oracle, JoinMatchesGoldenUnderApproxFaults) {
  const std::vector<uint32_t> left = MakeInput(InputShape::kDupHeavy, 150, 41);
  const std::vector<uint32_t> right = MakeInput(InputShape::kDupHeavy, 120, 42);

  FaultPlan plan = FaultPlan::ApproxStorm(99);
  FaultInjector injector(plan);
  core::EngineOptions engine_options;
  engine_options.calibration_trials = 5000;
  engine_options.fault_hook = &injector;
  core::ApproxSortEngine engine(engine_options);

  dbops::JoinOptions options;
  const auto result = dbops::SortMergeJoin(engine, left, right, options);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_TRUE(result->verified);
  EXPECT_FALSE(result->truncated);

  std::vector<dbops::JoinPair> pairs = result->pairs;
  CanonicalizeJoinPairs(pairs);
  const std::vector<dbops::JoinPair> golden = GoldenJoinPairs(left, right);
  ASSERT_EQ(pairs.size(), golden.size());
  for (size_t i = 0; i < golden.size(); ++i) {
    EXPECT_EQ(pairs[i].left_row, golden[i].left_row);
    EXPECT_EQ(pairs[i].right_row, golden[i].right_row);
  }
}

TEST(differential_oracle, ExternalSortMatchesGoldenUnderApproxFaults) {
  const size_t n = 5000;
  const std::vector<uint32_t> keys = MakeInput(InputShape::kUniform, n, 51);

  FaultPlan plan = FaultPlan::ApproxStorm(123);
  FaultInjector injector(plan);
  core::EngineOptions engine_options;
  engine_options.calibration_trials = 5000;
  engine_options.fault_hook = &injector;
  core::ApproxSortEngine engine(engine_options);

  extsort::AsyncDevice device;
  const int input_file = device.CreateFile();
  device.Wait(device.SubmitWrite(input_file, keys, 0.0));
  device.ResetClock();

  extsort::ExternalSortOptions options;
  options.run_elements = 512;
  options.merge_fan_in = 4;
  options.merge_buffer_elements = 64;
  int output_file = -1;
  const auto report =
      extsort::ExternalSort(engine, device, input_file, options, &output_file);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_TRUE(report->verified);
  EXPECT_GT(report->initial_runs, 1u);

  std::vector<uint32_t> golden = keys;
  std::sort(golden.begin(), golden.end());
  EXPECT_EQ(device.PeekData(output_file), golden);
}

}  // namespace
}  // namespace approxmem::testing
