// Endurance extension: PCM cells wear out per RESET/SET pulse, i.e. per
// program-and-verify iteration. Approximate writes converge in fewer
// iterations, so besides latency they also save wear. This bench reports
// total P&V iterations per element for a full approx-refine sort vs the
// precise baseline — the endurance co-benefit the latency numbers imply.
//
// --soak_seconds=S additionally runs a sustained-traffic soak: the
// multi-tenant sort service absorbs random bursty traces for S seconds on
// a substrate with one persistently hot region (canary error rate ~90%),
// then reports wear-leveling effectiveness (per-shard placement imbalance
// across PCM banks) and quarantine churn. Exits 1 when rotation failed to
// keep placement balanced — the CI soak gate.
//
// --age_multiplier=X runs the accelerated-aging soak instead: the service
// runs with the endurance subsystem on (approx/endurance.h) and every
// charged P&V iteration counts X times against the per-bank budgets, so a
// device-lifetime's worth of wear passes in CI minutes. Time is job-count
// virtual time, never wall clock, so the retirement timeline and every
// service digest replay bit-identically — the soak runs the same traffic
// twice (shard pool threaded, then serial) and fails unless the timelines
// and tenant ledgers match. It also fails when no bank retired, when the
// service stopped completing verified jobs after the first retirement, or
// when any completed job's output digest disagrees with std::sort (the
// differential oracle). Its retirement timeline, per-epoch virtual-time SLO
// and lifetime summary are written to endurance_timeline.csv,
// endurance_epochs.csv and endurance_summary.csv, which ctest pins byte for
// byte (GoldenParity.endurance_*); the wall-clock p99 drift is printed as
// advisory only.
//
// Every run writes the P&V wear table to wear.csv.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "approx/endurance.h"
#include "bench/bench_lib.h"
#include "common/hash.h"
#include "common/table_printer.h"
#include "core/workload.h"
#include "service/sort_service.h"
#include "testing/fault_injection.h"

namespace approxmem {
namespace {

// Placement balance: max-over-mean bytes placed across the banks that ever
// held an allocation. Unlike WearImbalance this ignores quarantine
// penalties, so a deliberately poisoned bank (which rotation must starve)
// does not dominate the metric.
double ByteImbalance(const service::WearPlacement& wear) {
  uint64_t max_bytes = 0;
  uint64_t total = 0;
  int used = 0;
  for (const service::BankWear& bank : wear.banks()) {
    if (bank.allocations == 0) continue;
    ++used;
    total += bank.bytes_placed;
    if (bank.bytes_placed > max_bytes) max_bytes = bank.bytes_placed;
  }
  if (used == 0 || total == 0) return 1.0;
  return static_cast<double>(max_bytes) /
         (static_cast<double>(total) / used);
}

int RunSoak(const bench::BenchEnv& env, double seconds) {
  const uint64_t trials =
      static_cast<uint64_t>(env.flags.GetInt("calibration_trials", 20000));
  service::ServiceOptions options;
  options.shards = 4;
  options.threads = env.threads;
  options.seed = env.seed;
  options.calibration_trials = trials;
  options.admission.queue_capacity = 128;
  // Every shard substrate carries one hot region at the bottom of bank
  // lane 0: the health monitor must keep quarantining it mid-flight while
  // the wear policy steers traffic around it for the whole soak.
  options.fault_hook_factory =
      [&env](int shard) -> std::unique_ptr<approx::MemoryFaultHook> {
    testing::FaultPlan plan;
    plan.seed = env.seed ^ (0xbadULL + static_cast<uint64_t>(shard));
    testing::ErrorRateOverride hot;
    hot.region = testing::AddressRegion{0, uint64_t{64} << 20};
    hot.probability = 0.9;
    plan.rate_overrides.push_back(hot);
    return std::make_unique<testing::FaultInjector>(plan);
  };
  service::SortService sort_service(options);
  constexpr struct {
    const char* name;
    const char* backend;
  } kTenants[] = {{"tenant-pcm", "mlc-pcm"},
                  {"tenant-banked", "mlc-pcm-banked"},
                  {"tenant-spin", "spintronic"}};
  for (const auto& profile : kTenants) {
    service::TenantSpec tenant;
    tenant.name = profile.name;
    tenant.backend = profile.backend;
    tenant.seed = env.seed;
    const Status status = sort_service.RegisterTenant(tenant);
    if (!status.ok()) {
      std::fprintf(stderr, "%s\n", status.ToString().c_str());
      return 1;
    }
  }

  std::printf("\nsoak: %.0fs of sustained bursty traffic, 4 shards, "
              "hot region poisoned at 90%% error rate\n",
              seconds);
  const auto start = std::chrono::steady_clock::now();
  const auto deadline = start + std::chrono::duration<double>(seconds);
  uint64_t round = 0;
  while (std::chrono::steady_clock::now() < deadline) {
    service::TraceGenOptions gen;
    gen.seed = env.seed + ++round;
    gen.tenants = {"tenant-pcm", "tenant-banked", "tenant-spin"};
    gen.bursts = 4;
    gen.max_burst_jobs = 8;
    gen.min_n = 64;
    gen.max_n = env.n < 512 ? env.n : 512;
    sort_service.Run(service::MakeRandomTrace(gen));
  }
  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  const service::ServiceStats& stats = sort_service.stats();

  TablePrinter table("soak: per-shard wear leveling and quarantine churn");
  table.SetHeader({"shard", "byte_imbalance", "wear_imbalance",
                   "quarantine_events", "alloc_retries"});
  bool balanced = true;
  uint64_t quarantines = 0;
  for (int s = 0; s < options.shards; ++s) {
    const service::WearPlacement& wear = sort_service.shard_wear(s);
    const approx::HealthStats health = sort_service.shard_health(s);
    const double imbalance = ByteImbalance(wear);
    if (imbalance > 2.0) balanced = false;
    quarantines += wear.quarantine_events();
    table.AddRow({TablePrinter::FmtInt(s), TablePrinter::Fmt(imbalance, 3),
                  TablePrinter::Fmt(wear.WearImbalance(), 3),
                  TablePrinter::FmtInt(static_cast<long long>(
                      wear.quarantine_events())),
                  TablePrinter::FmtInt(static_cast<long long>(
                      health.allocation_retries))});
  }
  table.Print();
  std::printf("  traffic           %zu jobs in %zu rounds (%.1f jobs/sec), "
              "%zu failed, %zu shed\n",
              stats.jobs_completed, static_cast<size_t>(round),
              elapsed > 0.0 ? static_cast<double>(stats.jobs_completed) /
                                  elapsed
                            : 0.0,
              stats.jobs_failed, stats.jobs_shed);
  std::printf("  quarantine churn  %llu events (%.1f per minute)\n",
              static_cast<unsigned long long>(quarantines),
              elapsed > 0.0 ? static_cast<double>(quarantines) / elapsed *
                                  60.0
                            : 0.0);
  if (quarantines == 0) {
    std::fprintf(stderr,
                 "soak: the poisoned region was never quarantined — the "
                 "health monitor is not seeing the storm\n");
    return 1;
  }
  if (!balanced) {
    std::fprintf(stderr,
                 "soak: placement imbalance above 2.0x — bank rotation is "
                 "not leveling wear\n");
    return 1;
  }
  std::printf("soak: PASS — placement stayed balanced under quarantine "
              "churn\n");
  return 0;
}

// ---- Accelerated-aging soak ------------------------------------------------

/// Everything one aging run produces that the gates and the tables need.
struct AgingRunResult {
  service::ServiceStats stats;
  uint64_t timeline_digest = 0;
  /// FNV fold of every tenant ledger digest, in tenant-name order.
  uint64_t ledger_digest = 0;
  uint64_t banks_retired = 0;
  uint64_t first_retirement_vtime = 0;
  uint64_t completed_after_first_retirement = 0;
  double p99_drift = 1.0;
  /// Last-epoch over first-epoch virtual-time p99: built from the modeled
  /// cost ledgers alone, so unlike p99_drift it is host-independent and
  /// golden-pinned.
  double virtual_p99_drift = 1.0;
  double write_reduction_drift = 0.0;
  uint64_t oracle_failures = 0;
  /// Retirement events in shard order, with their owning shard.
  std::vector<std::pair<int, approx::RetirementEvent>> timeline;
  std::map<uint64_t, service::SloEpochStats> epochs;
};

constexpr struct {
  const char* name;
  const char* backend;
} kAgingTenants[] = {{"tenant-pcm", "mlc-pcm"},
                     {"tenant-banked", "mlc-pcm-banked"},
                     {"tenant-spin", "spintronic"}};

/// One full aging run: fixed rounds of deterministic bursty traffic on an
/// endurance-modeled 2-shard substrate. Pure function of (env.seed,
/// age_multiplier, rounds, budget) — `threads` only changes wall clock.
AgingRunResult RunAgingService(
    const bench::BenchEnv& env, double age_multiplier, int rounds,
    int threads, double budget,
    const std::shared_ptr<mlc::CalibrationCache>& calibration) {
  service::ServiceOptions options;
  options.shards = 2;
  options.threads = threads;
  options.seed = env.seed;
  options.calibration_trials = static_cast<uint64_t>(
      env.flags.GetInt("calibration_trials", 20000));
  options.shared_calibration = calibration;
  options.admission.queue_capacity = 256;
  // Few, small banks concentrate wear so a device lifetime fits in a CI
  // run; the endurance geometry follows options.wear automatically.
  options.wear.banks = 4;
  options.endurance.enabled = true;
  options.endurance.bank_budget_pv = budget;
  options.endurance.age_multiplier = age_multiplier;
  service::SortService sort_service(options);
  for (const auto& profile : kAgingTenants) {
    service::TenantSpec tenant;
    tenant.name = profile.name;
    tenant.backend = profile.backend;
    tenant.seed = env.seed;
    const Status status = sort_service.RegisterTenant(tenant);
    if (!status.ok()) {
      std::fprintf(stderr, "%s\n", status.ToString().c_str());
      std::exit(1);
    }
  }

  for (int round = 0; round < rounds; ++round) {
    service::TraceGenOptions gen;
    gen.seed = env.seed ^ (0xa9e5ULL * static_cast<uint64_t>(round + 1));
    gen.tenants = {"tenant-pcm", "tenant-banked", "tenant-spin"};
    gen.bursts = 2;
    gen.max_burst_jobs = 6;
    gen.min_n = 64;
    gen.max_n = env.n < 256 ? env.n : 256;
    sort_service.Run(service::MakeRandomTrace(gen));
  }

  AgingRunResult result;
  result.stats = sort_service.stats();
  result.timeline_digest = sort_service.RetirementTimelineDigest();
  uint64_t ledgers = Fnv1a64(nullptr, 0);
  for (const std::string& name : sort_service.tenant_names()) {
    const uint64_t digest = sort_service.tenant_ledger(name).Digest();
    ledgers = Fnv1a64(&digest, sizeof(digest), ledgers);
  }
  result.ledger_digest = ledgers;
  for (int s = 0; s < options.shards; ++s) {
    const approx::EnduranceLedger* ledger = sort_service.shard_endurance(s);
    result.banks_retired += ledger->wear_epoch();
    for (const approx::RetirementEvent& event : ledger->retirements()) {
      result.timeline.emplace_back(s, event);
      if (result.first_retirement_vtime == 0 ||
          event.virtual_time < result.first_retirement_vtime) {
        result.first_retirement_vtime = event.virtual_time;
      }
    }
  }
  // Differential oracle over every completed job: the digest the service
  // recorded must equal the digest of a trusted std::sort of the same
  // generated input — aged banks may err more, but a COMPLETED job is
  // still exactly sorted.
  for (const service::JobRecord& record : sort_service.jobs()) {
    if (record.state != service::JobState::kCompleted) continue;
    if (record.wear_epoch > 0) ++result.completed_after_first_retirement;
    std::vector<uint32_t> expected = core::MakeKeys(
        record.request.workload, record.request.n, record.request.seed);
    std::sort(expected.begin(), expected.end());
    const uint64_t digest =
        expected.empty()
            ? 0
            : Fnv1a64(expected.data(),
                      expected.size() * sizeof(uint32_t));
    if (digest != record.keys_digest) ++result.oracle_failures;
  }
  result.p99_drift = sort_service.slo().P99DriftRatio();
  result.virtual_p99_drift = sort_service.slo().VirtualP99DriftRatio();
  result.write_reduction_drift = sort_service.slo().WriteReductionDrift();
  result.epochs = sort_service.slo().epochs();
  return result;
}

int RunAgingSoak(const bench::BenchEnv& env, double age_multiplier) {
  const int rounds =
      static_cast<int>(env.flags.GetInt("aging_rounds", 24));
  // Sized so a 4-bank shard under ~25 rounds of default traffic walks the
  // whole lifecycle: healthy, aged (escalation steps), staggered
  // retirements, and end-of-life shedding near the end of the soak.
  const double budget =
      env.flags.GetDouble("bank_budget_pv", 4.0e6);

  std::printf("\naging soak: %d rounds of bursty traffic, 2 shards x 4 "
              "banks, age multiplier %.0fx, bank budget %.2e P&V\n",
              rounds, age_multiplier, budget);
  // One shared calibration cache: per-T calibrations are deterministic, so
  // sharing only removes the Monte-Carlo recalibration from the replay.
  const uint64_t trials = static_cast<uint64_t>(
      env.flags.GetInt("calibration_trials", 20000));
  const auto calibration = std::make_shared<mlc::CalibrationCache>(
      mlc::MlcConfig{}, trials, env.seed ^ 0xca11b7a7e5eedULL);
  const AgingRunResult primary = RunAgingService(
      env, age_multiplier, rounds, env.threads, budget, calibration);
  // The determinism gate: the identical virtual-time run with the shard
  // pool forced serial must age — and account — bit-identically.
  const AgingRunResult replay = RunAgingService(env, age_multiplier, rounds,
                                                1, budget, calibration);

  TablePrinter timeline("retirement timeline (job-count virtual time)");
  timeline.SetHeader({"shard", "bank", "reason", "virtual_time",
                      "consumed_pv", "quarantines"});
  for (const auto& [shard, event] : primary.timeline) {
    timeline.AddRow(
        {TablePrinter::FmtInt(shard), TablePrinter::FmtInt(event.bank),
         std::string(approx::RetirementReasonName(event.reason)),
         TablePrinter::FmtInt(static_cast<long long>(event.virtual_time)),
         TablePrinter::Fmt(event.consumed_pv, 0),
         TablePrinter::FmtInt(static_cast<long long>(event.quarantines))});
  }
  timeline.Print();
  bench::WriteCsv(env, timeline, "endurance_timeline.csv");

  TablePrinter slo("per-wear-epoch SLO (virtual time, deterministic)");
  slo.SetHeader({"epoch", "completed", "failed", "shed", "mean_WR",
                 "vp50_us", "vp99_us"});
  for (const auto& [epoch, stats] : primary.epochs) {
    slo.AddRow({TablePrinter::FmtInt(static_cast<long long>(epoch)),
                TablePrinter::FmtInt(static_cast<long long>(
                    stats.jobs_completed)),
                TablePrinter::FmtInt(static_cast<long long>(
                    stats.jobs_failed)),
                TablePrinter::FmtInt(static_cast<long long>(stats.jobs_shed)),
                TablePrinter::FmtPercent(stats.MeanWriteReduction(), 1),
                TablePrinter::Fmt(stats.VirtualLatencyP50(), 1),
                TablePrinter::Fmt(stats.VirtualLatencyP99(), 1)});
  }
  slo.Print();
  bench::WriteCsv(env, slo, "endurance_epochs.csv");

  TablePrinter summary("device lifetime (job-count virtual time)");
  summary.SetHeader({"submitted", "completed", "failed", "shed",
                     "shed_exhausted", "banks_retired", "first_retirement",
                     "completed_after_first", "virtual_p99_drift",
                     "WR_drift", "timeline_digest", "ledger_digest"});
  const auto count = [](uint64_t value) {
    return TablePrinter::FmtInt(static_cast<long long>(value));
  };
  summary.AddRow({count(primary.stats.jobs_submitted),
                  count(primary.stats.jobs_completed),
                  count(primary.stats.jobs_failed),
                  count(primary.stats.jobs_shed),
                  count(primary.stats.jobs_shed_exhausted),
                  count(primary.banks_retired),
                  count(primary.first_retirement_vtime),
                  count(primary.completed_after_first_retirement),
                  TablePrinter::Fmt(primary.virtual_p99_drift, 3),
                  TablePrinter::Fmt(primary.write_reduction_drift, 4),
                  bench::HexDigest(primary.timeline_digest),
                  bench::HexDigest(primary.ledger_digest)});
  summary.Print();
  bench::WriteCsv(env, summary, "endurance_summary.csv");
  std::printf("  wall-clock p99 drift x%.3f across epochs (advisory)\n",
              primary.p99_drift);
  std::printf("  serial replay digests: timeline %s ledgers %s\n",
              bench::HexDigest(replay.timeline_digest).c_str(),
              bench::HexDigest(replay.ledger_digest).c_str());

  bool ok = true;
  if (primary.oracle_failures > 0 || replay.oracle_failures > 0) {
    std::fprintf(stderr,
                 "aging soak: %llu completed job(s) failed the "
                 "differential oracle — a COMPLETED job must be exactly "
                 "sorted\n",
                 static_cast<unsigned long long>(primary.oracle_failures +
                                                 replay.oracle_failures));
    ok = false;
  }
  if (primary.banks_retired == 0) {
    std::fprintf(stderr,
                 "aging soak: no bank retired — raise --age_multiplier or "
                 "lower --bank_budget_pv, the lifetime model never "
                 "engaged\n");
    ok = false;
  }
  if (primary.completed_after_first_retirement == 0) {
    std::fprintf(stderr,
                 "aging soak: no verified completion after the first "
                 "retirement — the service did not degrade gracefully\n");
    ok = false;
  }
  if (primary.timeline_digest != replay.timeline_digest ||
      primary.ledger_digest != replay.ledger_digest) {
    std::fprintf(stderr,
                 "aging soak: threaded and serial runs disagree — the "
                 "retirement timeline or tenant ledgers are "
                 "nondeterministic\n");
    ok = false;
  }

  if (!ok) return 1;
  std::printf("aging soak: PASS — deterministic retirement timeline, "
              "verified service through %llu retirement(s)\n",
              static_cast<unsigned long long>(primary.banks_retired));
  return 0;
}

int Main(int argc, char** argv) {
  const bench::BenchEnv env = bench::ParseBenchEnv(argc, argv, 100000);
  bench::PrintRunHeader("Extension: P&V wear of approx-refine vs precise",
                        env);
  core::ApproxSortEngine engine = bench::MakeEngine(env);
  const auto keys =
      core::MakeKeys(core::WorkloadKind::kUniform, env.n, env.seed);
  const sort::AlgorithmId algorithm{sort::SortKind::kLsdRadix, 3};

  TablePrinter table("P&V iterations (wear) per element, 3-bit LSD");
  table.SetHeader({"T", "p(t)", "wear_approx_refine", "wear_precise",
                   "wear_reduction", "write_reduction"});
  for (const double t : {0.035, 0.045, 0.055, 0.065}) {
    const auto outcome = bench::RequireVerifiedOutcome(
        engine.SortApproxRefine(keys, algorithm, t), "wear");
    const double dn = static_cast<double>(env.n);
    const double refine_wear =
        (outcome.refine.prep_approx.pv_iterations +
         outcome.refine.prep_precise.pv_iterations +
         outcome.refine.sort_approx.pv_iterations +
         outcome.refine.sort_precise.pv_iterations +
         outcome.refine.refine_precise.pv_iterations) /
        dn;
    const double baseline_wear = (outcome.baseline.keys.pv_iterations +
                                  outcome.baseline.ids.pv_iterations) /
                                 dn;
    table.AddRow({TablePrinter::Fmt(t, 3),
                  TablePrinter::Fmt(engine.PvRatio(t), 3),
                  TablePrinter::Fmt(refine_wear, 1),
                  TablePrinter::Fmt(baseline_wear, 1),
                  TablePrinter::FmtPercent(1.0 - refine_wear / baseline_wear,
                                           1),
                  TablePrinter::FmtPercent(outcome.write_reduction, 1)});
  }
  table.Print();
  bench::WriteCsv(env, table, "wear.csv");
  std::printf(
      "\nWear tracks latency: at the sweet spot the approximate stage's "
      "cells see ~p(t) of the precise pulse count, extending device "
      "lifetime alongside the write-latency win.\n");
  const double age_multiplier = env.flags.GetDouble("age_multiplier", 0.0);
  if (age_multiplier > 0.0) return RunAgingSoak(env, age_multiplier);
  const double soak_seconds = env.flags.GetDouble("soak_seconds", 0.0);
  if (soak_seconds > 0.0) return RunSoak(env, soak_seconds);
  return 0;
}

}  // namespace
}  // namespace approxmem

int main(int argc, char** argv) { return approxmem::Main(argc, argv); }
