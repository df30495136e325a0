// The resilient execution layer's contract:
//   * a fault-free run stops after one attempt and the monitor's canary
//     probes are the only overhead (<= 2% extra write cost);
//   * any approx-domain fault plan is absorbed by the refine guarantee
//     without a single retry;
//   * precise-domain faults climb the ladder — transient read flips are
//     cured by refine-only retries, persistent region faults by guard-band
//     escalation or the precise fallback — and the final output is exactly
//     sorted either way;
//   * with health monitoring on, a persistently bad region is quarantined
//     at allocation time so the ladder never has to climb at all;
//   * the cumulative ledger is exactly the sum of every attempt's marginal
//     cost plus the canary traffic (no cost is ever dropped, including an
//     approx stage that aborts mid-sort);
//   * for a fixed (seed, plan) the whole ladder replays bit-identically at
//     every thread count.
#include "core/resilience.h"

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/hash.h"
#include "common/thread_pool.h"
#include "core/workload.h"
#include "mlc/calibration.h"
#include "testing/fault_injection.h"

namespace approxmem::core {
namespace {

constexpr sort::AlgorithmId kLsd3{sort::SortKind::kLsdRadix, 3};
constexpr sort::AlgorithmId kQuick{sort::SortKind::kQuicksort, 0};

EngineOptions FastOptions(uint64_t seed = 31) {
  EngineOptions options;
  options.calibration_trials = 20000;
  options.seed = seed;
  return options;
}

std::vector<uint32_t> SortedCopy(std::vector<uint32_t> keys) {
  std::sort(keys.begin(), keys.end());
  return keys;
}

// A persistent precise-domain fault over the low address region: every
// precise write below `end` suffers an extra single-bit error with
// `probability`. The bump allocator starts at address 0, so the baseline
// and the first attempt's Key0/ID arrays land inside the region; later
// attempts (and the fallback) allocate past it.
testing::FaultPlan LowRegionPreciseFaults(uint64_t end, double probability) {
  testing::FaultPlan plan;
  plan.seed = 7;
  plan.rate_overrides.push_back(testing::ErrorRateOverride{
      testing::AddressRegion{0, end}, testing::FaultDomain::kPreciseOnly,
      probability});
  return plan;
}

TEST(ResilienceTest, NoFaultRunStopsAtOneAttempt) {
  EngineOptions options = FastOptions();
  options.health.enabled = true;
  ApproxSortEngine engine(options);
  const auto keys = MakeKeys(WorkloadKind::kUniform, 20000, 1);

  std::vector<uint32_t> out_keys;
  std::vector<uint32_t> out_ids;
  const auto report =
      SortResilient(engine, keys, kLsd3, 0.055, {}, &out_keys, &out_ids);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_TRUE(report->verified);
  ASSERT_EQ(report->attempts.size(), 1u);
  EXPECT_EQ(report->final_policy, AttemptPolicy::kInitial);
  EXPECT_EQ(out_keys, SortedCopy(keys));
  EXPECT_EQ(out_ids.size(), keys.size());

  // Overhead is measured against the run's own single attempt: cumulative
  // minus attempt cost is exactly the canary probe traffic, and must stay
  // within the 2% acceptance budget.
  const double attempt_cost = report->refine.TotalWriteCost();
  ASSERT_GT(attempt_cost, 0.0);
  EXPECT_LE(report->cumulative.write_cost / attempt_cost - 1.0, 0.02);
  EXPECT_GT(report->canary_costs.word_writes, 0u);
  EXPECT_EQ(report->health.regions_quarantined, 0u);
  EXPECT_GT(report->write_reduction, 0.0);
}

TEST(ResilienceTest, MonitoringOffAddsNoCostAtAll) {
  // With monitoring off and no faults, the single attempt IS the whole
  // cumulative ledger: no canary traffic, no probes, nothing hidden. The
  // reported write reduction stays close to the plain engine path's (the
  // two runs consume different RNG substreams — the resilient path sorts
  // its baseline first — so the costs are statistically, not bitwise,
  // equal).
  const auto keys = MakeKeys(WorkloadKind::kUniform, 10000, 2);
  ApproxSortEngine plain(FastOptions(5));
  const auto outcome = plain.SortApproxRefine(keys, kLsd3, 0.055);
  ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();

  ApproxSortEngine resilient(FastOptions(5));
  std::vector<uint32_t> res_keys;
  const auto report =
      SortResilient(resilient, keys, kLsd3, 0.055, {}, &res_keys, nullptr);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  ASSERT_EQ(report->attempts.size(), 1u);
  EXPECT_EQ(res_keys, SortedCopy(keys));
  EXPECT_EQ(report->canary_costs.word_writes, 0u);
  EXPECT_EQ(report->canary_costs.word_reads, 0u);
  EXPECT_EQ(report->health.regions_probed, 0u);
  EXPECT_DOUBLE_EQ(report->cumulative.write_cost,
                   report->refine.TotalWriteCost());
  EXPECT_NEAR(report->write_reduction, outcome->write_reduction, 0.02);
}

TEST(ResilienceTest, ApproxDomainStormIsAbsorbedWithoutRetries) {
  // The paper's guarantee, restated through the ladder: any corruption of
  // the approximate domain — storms, stuck cells — costs Rem~, never a
  // retry.
  for (const uint64_t storm_seed : {11u, 12u, 13u}) {
    testing::FaultPlan plan = testing::FaultPlan::ApproxStorm(storm_seed);
    plan.stuck_at.push_back(testing::StuckAtFault{
        testing::AddressRegion::All(), testing::FaultDomain::kApproxOnly,
        /*mask=*/0x00010000u, /*value=*/0});
    testing::FaultInjector injector(plan);

    EngineOptions options = FastOptions(100 + storm_seed);
    options.fault_hook = &injector;
    ApproxSortEngine engine(options);
    const auto keys = MakeKeys(WorkloadKind::kUniform, 10000, storm_seed);

    std::vector<uint32_t> out_keys;
    const auto report =
        SortResilient(engine, keys, kLsd3, 0.055, {}, &out_keys, nullptr);
    ASSERT_TRUE(report.ok()) << report.status().ToString();
    EXPECT_TRUE(report->verified) << "storm seed " << storm_seed;
    EXPECT_EQ(report->attempts.size(), 1u) << "storm seed " << storm_seed;
    EXPECT_EQ(out_keys, SortedCopy(keys)) << "storm seed " << storm_seed;
  }
}

TEST(ResilienceTest, TransientPreciseReadFaultsAreCuredByTheLadder) {
  // Precise-domain read flips over the low address region: the first
  // attempt's Key0/ID arrays live there, so its refine runs keep observing
  // flipped reads (re-sampled each replay). A guard-band escalation
  // re-runs the pipeline on fresh arrays past the region and verifies.
  testing::FaultPlan plan;
  plan.seed = 21;
  plan.read_flips.push_back(testing::TransientReadFault{
      testing::AddressRegion{0, 256 * 1024},
      testing::FaultDomain::kPreciseOnly, 2e-4});
  testing::FaultInjector injector(plan);

  EngineOptions options = FastOptions(77);
  options.fault_hook = &injector;
  ApproxSortEngine engine(options);
  const auto keys = MakeKeys(WorkloadKind::kUniform, 5000, 9);

  std::vector<uint32_t> out_keys;
  std::vector<uint32_t> out_ids;
  const auto report =
      SortResilient(engine, keys, kQuick, 0.055, {}, &out_keys, &out_ids);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_TRUE(report->verified);
  EXPECT_GT(report->attempts.size(), 1u);
  EXPECT_FALSE(report->attempts.front().verified);
  EXPECT_NE(report->attempts.front().verification.failure,
            refine::VerifyFailureKind::kNone);
  EXPECT_EQ(out_keys, SortedCopy(keys));
  // Failed attempts stay in the ledger: cumulative cost exceeds the final
  // attempt's own cost.
  EXPECT_GT(report->cumulative.write_cost, report->refine.TotalWriteCost());
}

TEST(ResilienceTest, PersistentPreciseRegionFaultForcesPreciseFallback) {
  // Unreliable precise memory at the bottom of the address space,
  // escalations disabled: the initial attempt's Key0/ID arrays are
  // corrupted at write time, so refine retries (which re-read the same
  // stored values) cannot cure it — only the precise fallback, whose
  // fresh allocations land past the bad region, can.
  testing::FaultPlan plan = LowRegionPreciseFaults(96 * 1024, 0.5);
  testing::FaultInjector injector(plan);

  EngineOptions options = FastOptions(41);
  options.fault_hook = &injector;
  ApproxSortEngine engine(options);
  const auto keys = MakeKeys(WorkloadKind::kUniform, 2000, 6);

  ResilienceOptions resilience;
  resilience.max_refine_retries = 1;
  resilience.max_escalations = 0;

  std::vector<uint32_t> out_keys;
  std::vector<uint32_t> out_ids;
  const auto report = SortResilient(engine, keys, kQuick, 0.055, resilience,
                                    &out_keys, &out_ids);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_TRUE(report->verified);
  EXPECT_EQ(report->final_policy, AttemptPolicy::kPreciseFallback);
  // Initial + refine retry + fallback, at least.
  EXPECT_GE(report->attempts.size(), 3u);
  EXPECT_EQ(out_keys, SortedCopy(keys));
  // Honest accounting: the rescue was more expensive than sorting
  // precisely outright, and the report must say so.
  EXPECT_LT(report->write_reduction, 0.0);
}

TEST(ResilienceTest, GuardBandEscalationEscapesTheBadRegion) {
  // Same bad region, escalations enabled: the first escalation re-runs the
  // whole pipeline with fresh allocations past the region and verifies —
  // the fallback is never needed and approximation is preserved.
  testing::FaultPlan plan = LowRegionPreciseFaults(96 * 1024, 0.5);
  testing::FaultInjector injector(plan);

  EngineOptions options = FastOptions(41);
  options.fault_hook = &injector;
  ApproxSortEngine engine(options);
  const auto keys = MakeKeys(WorkloadKind::kUniform, 2000, 6);

  std::vector<uint32_t> out_keys;
  const auto report =
      SortResilient(engine, keys, kQuick, 0.055, {}, &out_keys, nullptr);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_TRUE(report->verified);
  EXPECT_EQ(report->final_policy, AttemptPolicy::kGuardBandEscalation);
  EXPECT_LT(report->final_t, 0.055);
  EXPECT_EQ(out_keys, SortedCopy(keys));
}

TEST(ResilienceTest, QuarantineRescuesAllocationsFromTheBadRegion) {
  // A bad region again, but with the health monitor on: the canary probes
  // see a ~50% word-error rate against a near-zero precise model rate,
  // quarantine the region at allocation time, and the very first attempt
  // runs on healthy memory — no retries, no fallback. (The region is sized
  // to cover where the attempt's Key0/ID arrays would have landed.)
  testing::FaultPlan plan = LowRegionPreciseFaults(112 * 1024, 0.5);
  testing::FaultInjector injector(plan);

  EngineOptions options = FastOptions(41);
  options.fault_hook = &injector;
  options.health.enabled = true;
  ApproxSortEngine engine(options);
  const auto keys = MakeKeys(WorkloadKind::kUniform, 6000, 6);

  std::vector<uint32_t> out_keys;
  const auto report =
      SortResilient(engine, keys, kLsd3, 0.055, {}, &out_keys, nullptr);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_TRUE(report->verified);
  EXPECT_EQ(report->attempts.size(), 1u);
  EXPECT_EQ(report->final_policy, AttemptPolicy::kInitial);
  EXPECT_GT(report->health.regions_quarantined, 0u);
  EXPECT_GT(report->health.allocation_retries, 0u);
  EXPECT_EQ(out_keys, SortedCopy(keys));
  // The quarantine marker propagates into the cumulative ledger.
  EXPECT_GT(report->cumulative.degraded_regions, 0u);
  // Approximation survived: write reduction stays positive.
  EXPECT_GT(report->write_reduction, 0.0);
}

TEST(ResilienceTest, CumulativeIsSumOfAttemptCostsPlusCanaries) {
  // Run a faulty, monitored configuration so every term is non-trivial:
  // multiple attempts AND canary traffic.
  testing::FaultPlan plan;
  plan.seed = 33;
  plan.read_flips.push_back(testing::TransientReadFault{
      testing::AddressRegion{0, 256 * 1024},
      testing::FaultDomain::kPreciseOnly, 2e-4});
  testing::FaultInjector injector(plan);

  EngineOptions options = FastOptions(77);
  options.fault_hook = &injector;
  options.health.enabled = true;
  ApproxSortEngine engine(options);
  const auto keys = MakeKeys(WorkloadKind::kUniform, 5000, 9);

  const auto report = SortResilient(engine, keys, kQuick, 0.055);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_TRUE(report->verified);

  approx::MemoryStats sum = report->canary_costs;
  for (const AttemptRecord& attempt : report->attempts) {
    sum += attempt.cost;
  }
  EXPECT_EQ(report->cumulative.word_writes, sum.word_writes);
  EXPECT_EQ(report->cumulative.word_reads, sum.word_reads);
  EXPECT_DOUBLE_EQ(report->cumulative.write_cost, sum.write_cost);
  EXPECT_DOUBLE_EQ(report->cumulative.read_cost, sum.read_cost);
}

TEST(ResilienceTest, AbortedApproxStageStillChargesItsCosts) {
  // Regression: an approx stage that dies mid-run (here: an invalid radix
  // width rejected by RunSort after the preparation writes) must still
  // report the preparation traffic it paid, not drop it.
  ApproxSortEngine engine(FastOptions());
  refine::RefineOptions ro;
  ro.algorithm = sort::AlgorithmId{sort::SortKind::kLsdRadix, 0};
  ro.approx_alloc = [&engine](size_t n) {
    return engine.memory().NewApproxArray(n, 0.055);
  };
  ro.precise_alloc = [&engine](size_t n) {
    return engine.memory().NewPreciseArray(n);
  };
  const auto keys = MakeKeys(WorkloadKind::kUniform, 4000, 3);

  refine::ApproxStageState state;
  const Status status = refine::RunApproxStage(keys, ro, &state);
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  // The prep ledgers hold the Key0 reads and Key~ writes that happened
  // before the sort was rejected.
  EXPECT_EQ(state.report.prep_approx.word_writes, keys.size());
  EXPECT_EQ(state.report.prep_precise.word_reads, keys.size());
  EXPECT_GT(state.report.TotalStats().write_cost, 0.0);
}

TEST(ResilienceTest, ExhaustedLadderReportsUnverifiedHonestly) {
  // No retries or escalations, and the precise faults in the low region
  // defeat the precise fallback too: the ladder must run dry and say so
  // (verified == false, ok status) instead of pretending or erroring out.
  testing::FaultPlan plan = LowRegionPreciseFaults(64 * 1024 * 1024, 0.5);
  testing::FaultInjector injector(plan);

  EngineOptions options = FastOptions(41);
  options.fault_hook = &injector;
  ApproxSortEngine engine(options);
  const auto keys = MakeKeys(WorkloadKind::kUniform, 2000, 6);

  ResilienceOptions resilience;
  resilience.max_refine_retries = 0;
  resilience.max_escalations = 0;

  const auto report = SortResilient(engine, keys, kQuick, 0.055, resilience);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_FALSE(report->verified);
  ASSERT_EQ(report->attempts.size(), 2u);
  EXPECT_EQ(report->attempts[0].policy, AttemptPolicy::kInitial);
  EXPECT_EQ(report->attempts[1].policy, AttemptPolicy::kPreciseFallback);
  EXPECT_FALSE(report->attempts[0].verified);
  EXPECT_FALSE(report->attempts[1].verified);
}

TEST(ResilienceTest, RejectsInvalidHalfWidth) {
  ApproxSortEngine engine(FastOptions());
  const auto keys = MakeKeys(WorkloadKind::kUniform, 100, 1);
  const auto report = SortResilient(engine, keys, kLsd3, -1.0);
  ASSERT_FALSE(report.ok());
  EXPECT_EQ(report.status().code(), StatusCode::kInvalidArgument);
}

// One resilient run per corpus case, under a shared calibration cache and
// `threads` workers; returns one digest line per case covering the attempt
// ladder and the final output.
std::vector<std::string> RunResilientSweep(int threads) {
  const std::vector<uint64_t> case_seeds = {3, 4, 5, 6};
  ThreadPool pool(threads);
  auto cache = std::make_shared<mlc::CalibrationCache>(
      mlc::MlcConfig(), 20000, /*seed=*/42 ^ 0xca11b7a7e5eedULL, &pool);

  std::vector<std::string> rows(case_seeds.size());
  pool.ParallelFor(0, rows.size(), [&](size_t i) {
    // Storm plus region-scoped precise read flips, so some cases climb
    // the ladder (and every one can escape it).
    testing::FaultPlan plan =
        testing::FaultPlan::ApproxStorm(case_seeds[i]);
    plan.read_flips.push_back(testing::TransientReadFault{
        testing::AddressRegion{0, 256 * 1024},
        testing::FaultDomain::kPreciseOnly, 2e-4});
    testing::FaultInjector injector(plan);

    EngineOptions options;
    options.calibration_trials = 20000;
    options.seed = 1000 + case_seeds[i];
    options.shared_calibration = cache;
    options.fault_hook = &injector;
    options.health.enabled = true;
    ApproxSortEngine engine(options);
    const auto keys =
        MakeKeys(WorkloadKind::kUniform, 5000, case_seeds[i]);

    std::vector<uint32_t> out_keys;
    std::vector<uint32_t> out_ids;
    const auto report = SortResilient(engine, keys, kQuick, 0.055, {},
                                      &out_keys, &out_ids);
    ASSERT_TRUE(report.ok()) << report.status().ToString();
    EXPECT_TRUE(report->verified) << "case seed " << case_seeds[i];
    EXPECT_EQ(out_keys, SortedCopy(keys)) << "case seed " << case_seeds[i];

    uint64_t digest = report->AttemptDigest();
    digest = Fnv1a64(out_keys.data(),
                     out_keys.size() * sizeof(uint32_t), digest);
    digest = Fnv1a64(out_ids.data(),
                     out_ids.size() * sizeof(uint32_t), digest);
    char buffer[64];
    std::snprintf(buffer, sizeof(buffer), "%016llx,%zu",
                  static_cast<unsigned long long>(digest),
                  report->attempts.size());
    rows[i] = buffer;
  });
  return rows;
}

TEST(ResilienceTest, LadderIsDeterministicAcrossThreadCounts) {
  const std::vector<std::string> serial = RunResilientSweep(1);
  const std::vector<std::string> parallel = RunResilientSweep(4);
  ASSERT_EQ(serial.size(), parallel.size());
  for (size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(serial[i], parallel[i]) << "case " << i;
  }
}

uint64_t DigestStats(uint64_t hash, const approx::MemoryStats& stats) {
  const double doubles[] = {stats.write_cost, stats.read_cost,
                            stats.pv_iterations};
  hash = Fnv1a64(doubles, sizeof(doubles), hash);
  for (const uint64_t counter :
       {stats.word_reads, stats.word_writes, stats.corrupted_writes,
        stats.sequential_writes, stats.degraded_regions}) {
    hash = Fnv1a64Word(hash, counter);
  }
  return hash;
}

// Digests of one resilient run: the attempt ladder, the cumulative and
// baseline ledgers, and the final output.
struct ResilientDigests {
  uint64_t attempts = 0;
  uint64_t cumulative = 0;
  uint64_t baseline = 0;
  uint64_t keys = 0;
  uint64_t ids = 0;
};

ResilientDigests RunResilientWithSortThreads(
    const sort::AlgorithmId& algorithm, int sort_threads, bool inject) {
  testing::FaultInjector injector(testing::FaultPlan::ApproxStorm(0x5eed));
  EngineOptions options = FastOptions();
  options.sort_threads = sort_threads;
  if (inject) options.fault_hook = &injector;
  ApproxSortEngine engine(options);
  // 20000 keys make several stripes, so unhooked runs split their passes.
  const auto keys = MakeKeys(WorkloadKind::kUniform, 20000, 9);
  std::vector<uint32_t> out_keys;
  std::vector<uint32_t> out_ids;
  const auto report =
      SortResilient(engine, keys, algorithm, 0.055, {}, &out_keys, &out_ids);
  ResilientDigests digests;
  EXPECT_TRUE(report.ok()) << report.status().ToString();
  if (!report.ok()) return digests;
  EXPECT_TRUE(report->verified);
  EXPECT_EQ(out_keys, SortedCopy(keys));
  if (inject) {
    EXPECT_GT(injector.injected_write_faults(), 0u);
  }
  digests.attempts = report->AttemptDigest();
  digests.cumulative = DigestStats(kFnv1a64Offset, report->cumulative);
  digests.baseline = DigestStats(
      DigestStats(kFnv1a64Offset, report->baseline.keys),
      report->baseline.ids);
  digests.keys =
      Fnv1a64(out_keys.data(), out_keys.size() * sizeof(out_keys[0]));
  digests.ids = Fnv1a64(out_ids.data(), out_ids.size() * sizeof(out_ids[0]));
  return digests;
}

// The baseline and every attempt run the striped sorts on the engine's
// sort pool; nothing the report carries may depend on its size.
TEST(ResilienceTest, SortThreadsDoNotChangeTheReport) {
  const sort::AlgorithmId hlsd3{sort::SortKind::kLsdHistogram, 3};
  for (const sort::AlgorithmId& algorithm : {kLsd3, hlsd3}) {
    for (const bool inject : {false, true}) {
      SCOPED_TRACE(algorithm.Name() + (inject ? " storm" : " no faults"));
      const ResilientDigests serial =
          RunResilientWithSortThreads(algorithm, 1, inject);
      const ResilientDigests pooled =
          RunResilientWithSortThreads(algorithm, 4, inject);
      EXPECT_EQ(serial.attempts, pooled.attempts);
      EXPECT_EQ(serial.cumulative, pooled.cumulative);
      EXPECT_EQ(serial.baseline, pooled.baseline);
      EXPECT_EQ(serial.keys, pooled.keys);
      EXPECT_EQ(serial.ids, pooled.ids);
    }
  }
}

}  // namespace
}  // namespace approxmem::core
