// Regression tests for bugs surfaced by the fault-injection oracle.
//
// Bug: histogram-radix Scatter lost record IDs under transient read
// faults. When the digit observed during the scatter pass differed from
// the digit observed during the counting pass (possible only when reads
// can return corrupted values), a bucket cursor ran past its segment and
// two elements were written to the same destination slot — the earlier
// (key, ID) pair was overwritten and another slot kept stale data. The ID
// column then stopped being a permutation of 0..n-1, which the refine
// stage cannot repair: its merge emitted a wrong-sized output and died on
// an internal CHECK instead of failing verification.
//
// The fix diverts colliding scatter writes to the slots left unclaimed at
// the end of the pass (radix_msd.cc) and makes the refine merge
// clamp its writes and fail verification gracefully (approx_refine.cc).
#include <gtest/gtest.h>

#include "testing/differential_oracle.h"
#include "testing/fault_injection.h"
#include "testing/generators.h"

namespace approxmem::testing {
namespace {

// The minimized failing tuple found by `approxmem_cli --cmd=fuzz
// --seed=11` and its greedy shrinker. Before the Scatter fix this case
// failed [ids-permutation] (and [refine-verified]); before the merge
// hardening it aborted the whole process on a CHECK.
TEST(fault_regression, MinimizedFuzzReproStaysFixed) {
  OracleCase repro;
  repro.seed = 7701927383116065759ULL;
  repro.n = 105;
  repro.paper_t = 30;
  repro.algorithm = sort::AlgorithmId{sort::SortKind::kLsdHistogram, 6};
  repro.shape = InputShape::kDupHeavy;

  FaultPlan plan = FaultPlan::ApproxStorm(repro.seed);
  FaultInjector injector(plan);
  OracleOptions options;
  options.injector = &injector;
  const OracleReport report = RunDifferentialOracle(repro, options);
  EXPECT_TRUE(report.ok) << report.FailureSummary();
  // The case is only a regression guard while the injector actually
  // perturbs the run.
  EXPECT_GT(injector.injected_read_faults() + injector.injected_write_faults(),
            0u);
}

// Directly hammers the collision path: a high transient read-flip rate
// makes count-pass and scatter-pass digits disagree many times per pass,
// so the diverted-slot path runs on nearly every histogram-radix case.
// Both histogram kinds must keep the ID permutation intact regardless.
TEST(fault_regression, HistogramRadixSurvivesHeavyReadFlips) {
  for (const sort::SortKind kind :
       {sort::SortKind::kLsdHistogram, sort::SortKind::kMsdHistogram}) {
    for (uint64_t seed = 1; seed <= 5; ++seed) {
      OracleCase oracle_case;
      oracle_case.seed = seed * 0x9e3779b9ULL + 17;
      oracle_case.n = 300;
      oracle_case.paper_t = 55;
      oracle_case.algorithm = sort::AlgorithmId{kind, 4};
      oracle_case.shape = seed % 2 == 0 ? InputShape::kDupHeavy
                                        : InputShape::kUniform;

      FaultPlan plan;
      plan.seed = oracle_case.seed;
      TransientReadFault flips;
      flips.domain = FaultDomain::kApproxOnly;
      flips.probability = 0.05;
      plan.read_flips.push_back(flips);

      FaultInjector injector(plan);
      OracleOptions options;
      options.injector = &injector;
      const OracleReport report = RunDifferentialOracle(oracle_case, options);
      EXPECT_TRUE(report.ok)
          << report.FailureSummary() << " (kind "
          << oracle_case.algorithm.Name() << ")";
      EXPECT_GT(injector.injected_read_faults(), 0u);
    }
  }
}

// A corrupted precise-domain ID column must degrade to verified == false,
// never to a process abort: the refine merge can emit a wrong-sized
// output when IDs are duplicated, and it has to survive that so fault
// harnesses can observe the failure.
TEST(fault_regression, RefineMergeFailsGracefullyOnPreciseFaults) {
  OracleCase oracle_case;
  oracle_case.seed = 0xdecafULL;
  oracle_case.n = 200;
  oracle_case.paper_t = 55;
  oracle_case.algorithm = sort::AlgorithmId{sort::SortKind::kQuicksort, 0};
  oracle_case.shape = InputShape::kUniform;

  FaultPlan plan;
  plan.seed = oracle_case.seed;
  StuckAtFault stuck;
  stuck.domain = FaultDomain::kPreciseOnly;
  stuck.mask = 0x7u;  // IDs collide: low bits forced to a constant.
  stuck.value = 0x5u;
  plan.stuck_at.push_back(stuck);

  FaultInjector injector(plan);
  OracleOptions options;
  options.injector = &injector;
  // Must not crash; must report the violation.
  const OracleReport report = RunDifferentialOracle(oracle_case, options);
  EXPECT_FALSE(report.ok);
  EXPECT_GT(injector.injected_write_faults(), 0u);
}

}  // namespace
}  // namespace approxmem::testing
