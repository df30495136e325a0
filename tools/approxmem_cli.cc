// approxmem_cli — run the simulator's main experiments from the command
// line without writing code.
//
//   approxmem_cli --cmd=calibrate [--save=FILE]
//   approxmem_cli --cmd=study   --algo=quicksort --t=0.055 --n=100000
//   approxmem_cli --cmd=sort    --algo=lsd3 --t=0.055 --n=100000
//   approxmem_cli --cmd=sort    --algo=lsd3 --backend=spintronic
//   approxmem_cli --cmd=sweep   --algo=msd3 --n=100000
//   approxmem_cli --cmd=recommend --algo=lsd3 --n=16000000 --t=0.055
//                 --rem=80000
//
// Common flags: --n, --t, --seed, --backend=<registered backend name>,
// --workload=uniform|skewed|nearly_sorted|reversed|all_equal, --exact
// (full Monte-Carlo write path). --t is interpreted by the selected
// backend (target-range half-width on MLC PCM, per-bit write-error
// probability on spintronic) and defaults to the backend's sweet spot.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "approx/memory_backend.h"

#include "common/flags.h"
#include "common/hash.h"
#include "common/thread_pool.h"
#include "common/table_printer.h"
#include "core/engine.h"
#include "core/resilience.h"
#include "core/workload.h"
#include "extsort/async_device.h"
#include "extsort/external_sort.h"
#include "refine/cost_model.h"
#include "service/sort_service.h"
#include "testing/differential_oracle.h"
#include "testing/fault_injection.h"
#include "testing/property_runner.h"

namespace approxmem {
namespace {

constexpr char kUsage[] =
    "usage: approxmem_cli --cmd=calibrate|study|sort|refine|sweep|recommend|"
    "resilient|fuzz|serve|extsort\n"
    "  calibrate [--save=FILE]         cell-model table (avg #P, p(t), err)\n"
    "  study     --algo=A --t=K        Section 3: sort in approx memory\n"
    "  sort      --algo=A --t=K        Sections 4-5: approx-refine to an\n"
    "            exactly sorted, verified output + WR (alias: refine)\n"
    "  sweep     --algo=A              WR across the T grid\n"
    "  recommend --algo=A --t=K --rem=R  Eq. 4 decision for size --n\n"
    "  resilient --algo=A --t=K        approx-refine behind the verified-\n"
    "            retry ladder (core/resilience.h): [--inject=0] fault storm,\n"
    "            [--monitor=1] canary quarantine, [--retries=1]\n"
    "            [--escalations=2] [--escalation_factor=0.5]\n"
    "            [--min_t=<backend floor>] [--log=0]; exits 1 if the final\n"
    "            output is unverified\n"
    "  fuzz      [--seconds=60] [--cases=0] [--threads=1] [--n_max=512]\n"
    "            [--inject=1] [--resilient=0]  randomized differential-\n"
    "            oracle runs; --resilient=1 drives SortResilient with\n"
    "            monitoring on instead (see TESTING.md; prints a minimized\n"
    "            repro and exits 1 on the first invariant violation)\n"
    "  serve     [--shards=4] [--threads=0] [--tenants=3] [--bursts=6]\n"
    "            [--burst_jobs=8] [--n_max=512] [--queue=64] [--quota=4]\n"
    "            [--max_deferrals=3] [--inject=0]  scripted request-trace\n"
    "            driver for the multi-tenant sort service\n"
    "            (service/sort_service.h): runs a deterministic bursty trace\n"
    "            over up to three tenants on different backends and prints\n"
    "            per-tenant ledgers, admission stats, virtual-time latency\n"
    "            percentiles, and per-shard wear/quarantine;\n"
    "            [--extsort_frac=0] makes that fraction of jobs\n"
    "            out-of-core (core/job_plan.h plans under per-tenant\n"
    "            MemoryBudget leases), [--cost_quota=0] caps\n"
    "            each tenant's Eq. 2 write cost per wear epoch (simulated\n"
    "            ns; over-quota jobs shed honestly), [--replay_check=0]\n"
    "            re-runs the trace at threads=1 and exits 1 unless every\n"
    "            per-tenant ledger digest matches; [--endurance=0] models\n"
    "            device lifetime (bank budgets, wear-error escalation,\n"
    "            retirement; approx/endurance.h) with\n"
    "            [--age_multiplier=1] [--bank_budget_pv=4e6] and adds a\n"
    "            per-shard wear-epoch/retirement table\n"
    "  extsort   [--budget_mb=8] [--threads=2] [--precise] [--compare=0]\n"
    "            [--replay_check=0] [--block_kb=4] [--bandwidth_mb=400]\n"
    "            [--latency_us=100] [--queue_depth=4] [--run_elements=0]\n"
    "            [--fan_in=0] [--verify=1] [--payloads=0]  out-of-core sort\n"
    "            of --n keys on a virtual block device\n"
    "            (extsort/async_device.h) under a strict --budget_mb memory\n"
    "            budget: double-buffered approx-refine run formation\n"
    "            overlapping prefetch/sort/flush, then loser-tree merge\n"
    "            passes; prints overlap ratios, spill accounting, and\n"
    "            digests. --precise sorts runs in precise memory instead;\n"
    "            --compare runs both and prints the Eq. 2 write reduction\n"
    "            at scale; --payloads spills <key,rowid> records and\n"
    "            verifies the output as a permutation certificate;\n"
    "            --replay_check re-runs at threads=1 and exits 1 unless\n"
    "            the spill and output digests are byte-identical;\n"
    "            --threads counts I/O workers (<=0 = hardware)\n"
    "common: --n=N --seed=S --backend=mlc-pcm|mlc-pcm-banked|spintronic|\n"
    "        dram-precise (any registered backend; --t is the backend's\n"
    "        knob — half-width T on PCM, per-bit error prob on spintronic;\n"
    "        default: the backend's sweet spot)\n"
    "        --workload=uniform|skewed|nearly_sorted|reversed|all_equal\n"
    "        --exact --sort_threads=K (intra-sort workers for the striped\n"
    "        radix passes; 1 = serial, <=0 = hardware; results identical\n"
    "        at every K) --calibration_trials=N (Monte-Carlo trials per\n"
    "        calibrated T) --help (this text); any flag not listed here\n"
    "        exits 2\n"
    "algorithms: quicksort mergesort lsd3..lsd6 msd3..msd6 hlsd3..6 "
    "hmsd3..6\n";

// Knob values span PCM half-widths (~0.05) and spintronic bit-error
// probabilities (1e-7..1e-4); %.4g renders both readably.
std::string FmtKnob(double knob) {
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "%.4g", knob);
  return buffer;
}

int Calibrate(core::ApproxSortEngine& engine, const Flags& flags) {
  TablePrinter table("Cell model calibration");
  table.SetHeader({"T", "avg_#P", "p(t)", "cell_error", "word_error"});
  for (double t = 0.025; t <= 0.1201; t += 0.005) {
    const mlc::CellCalibration& calib = engine.memory().calibration().ForT(t);
    table.AddRow({TablePrinter::Fmt(t, 3),
                  TablePrinter::Fmt(calib.AvgPv(), 3),
                  TablePrinter::Fmt(engine.PvRatio(t), 3),
                  TablePrinter::FmtPercent(calib.CellErrorRate(), 4),
                  TablePrinter::FmtPercent(calib.WordErrorRate(16), 4)});
  }
  table.Print();
  const std::string save = flags.GetString("save", "");
  if (!save.empty()) {
    if (!engine.memory().calibration().SaveToFile(save)) {
      std::fprintf(stderr, "failed to save calibration to %s\n",
                   save.c_str());
      return 1;
    }
    std::printf("calibration saved to %s\n", save.c_str());
  }
  return 0;
}

int Study(core::ApproxSortEngine& engine, const sort::AlgorithmId& algorithm,
          const std::vector<uint32_t>& keys, double t) {
  const auto result = engine.SortApproxOnly(keys, algorithm, t);
  if (!result.ok()) {
    std::fprintf(stderr, "%s\n", result.status().ToString().c_str());
    return 1;
  }
  std::printf("%s on %zu keys at knob=%s (approximate memory only):\n",
              algorithm.Name().c_str(), keys.size(), FmtKnob(t).c_str());
  std::printf("  Rem ratio        %.4f%%\n",
              result->sortedness.rem_ratio * 100.0);
  std::printf("  error rate       %.4f%%\n",
              result->sortedness.error_rate * 100.0);
  std::printf("  inversion ratio  %.4f%%\n",
              result->sortedness.inversion_ratio * 100.0);
  std::printf("  write reduction  %.2f%% (Eq. 1)\n",
              result->write_reduction * 100.0);
  return 0;
}

int Refine(core::ApproxSortEngine& engine, const sort::AlgorithmId& algorithm,
           const std::vector<uint32_t>& keys, double t) {
  const auto outcome = engine.SortApproxRefine(keys, algorithm, t);
  if (!outcome.ok()) {
    std::fprintf(stderr, "%s\n", outcome.status().ToString().c_str());
    return 1;
  }
  std::printf("%s on %zu keys at knob=%s (approx-refine):\n",
              algorithm.Name().c_str(), keys.size(), FmtKnob(t).c_str());
  std::printf("  verified sorted   %s\n",
              outcome->refine.verified() ? "yes" : "NO");
  std::printf("  Rem~              %zu\n", outcome->refine.rem_estimate);
  std::printf("  approx stage      %.3f ms write latency\n",
              outcome->refine.ApproxStageWriteCost() / 1e6);
  std::printf("  refine stage      %.3f ms write latency\n",
              outcome->refine.RefineStageWriteCost() / 1e6);
  std::printf("  precise baseline  %.3f ms write latency\n",
              outcome->baseline.TotalWriteCost() / 1e6);
  std::printf("  write reduction   %.2f%% measured, %.2f%% predicted\n",
              outcome->write_reduction * 100.0,
              outcome->predicted_write_reduction * 100.0);
  if (!outcome->refine.verified()) {
    std::fprintf(stderr, "refine: UNVERIFIED output — %s\n",
                 outcome->refine.verification.ToString().c_str());
    return 1;
  }
  return 0;
}

int Resilient(const Flags& flags, const sort::AlgorithmId& algorithm,
              const std::vector<uint32_t>& keys, double t,
              core::EngineOptions engine_options) {
  engine_options.health.enabled = flags.GetBool("monitor", true);

  std::unique_ptr<testing::FaultInjector> injector;
  if (flags.GetBool("inject", false)) {
    injector = std::make_unique<testing::FaultInjector>(
        testing::FaultPlan::ApproxStorm(engine_options.seed));
    engine_options.fault_hook = injector.get();
  }
  core::ApproxSortEngine engine(engine_options);

  core::ResilienceOptions resilience;
  resilience.max_refine_retries = static_cast<int>(flags.GetInt("retries", 1));
  resilience.max_escalations = static_cast<int>(flags.GetInt("escalations", 2));
  resilience.escalation_factor = flags.GetDouble("escalation_factor", 0.5);
  // NaN lets the ladder bottom out at the backend's own precision floor.
  resilience.min_t =
      flags.GetDouble("min_t", std::numeric_limits<double>::quiet_NaN());
  resilience.log_diagnostics = flags.GetBool("log", false);

  const auto report = core::SortResilient(engine, keys, algorithm, t,
                                          resilience);
  if (!report.ok()) {
    std::fprintf(stderr, "%s\n", report.status().ToString().c_str());
    return 1;
  }

  std::printf("%s on %zu keys at knob=%s (resilient approx-refine):\n",
              algorithm.Name().c_str(), keys.size(), FmtKnob(t).c_str());
  TablePrinter table("attempt ladder");
  table.SetHeader({"#", "policy", "T", "status", "verified", "Rem~",
                   "write_cost"});
  for (size_t i = 0; i < report->attempts.size(); ++i) {
    const core::AttemptRecord& a = report->attempts[i];
    table.AddRow({TablePrinter::FmtInt(static_cast<long long>(i + 1)),
                  std::string(core::AttemptPolicyName(a.policy)),
                  FmtKnob(a.t),
                  a.status.ok() ? "ok" : a.status.ToString(),
                  a.verified ? "yes" : (a.status.ok()
                                            ? a.verification.ToString()
                                            : "-"),
                  TablePrinter::FmtInt(
                      static_cast<long long>(a.rem_estimate)),
                  TablePrinter::Fmt(a.cost.write_cost / 1e6, 3)});
  }
  table.Print();
  std::printf("  final policy      %s (knob=%s)\n",
              core::AttemptPolicyName(report->final_policy).data(),
              FmtKnob(report->final_t).c_str());
  std::printf("  cumulative cost   %.3f ms write latency "
              "(canaries %.3f ms)\n",
              report->cumulative.write_cost / 1e6,
              report->canary_costs.write_cost / 1e6);
  std::printf("  precise baseline  %.3f ms write latency\n",
              report->baseline.TotalWriteCost() / 1e6);
  std::printf("  write reduction   %.2f%% (cumulative, Eq. 2-honest)\n",
              report->write_reduction * 100.0);
  if (engine_options.health.enabled) {
    const approx::HealthStats& health = report->health;
    std::printf("  health monitor    %llu regions probed, %llu quarantined, "
                "%llu alloc retries, %llu/%llu canary errors\n",
                static_cast<unsigned long long>(health.regions_probed),
                static_cast<unsigned long long>(health.regions_quarantined),
                static_cast<unsigned long long>(health.allocation_retries),
                static_cast<unsigned long long>(health.canary_errors),
                static_cast<unsigned long long>(health.canary_writes));
  }
  if (!report->verified) {
    std::fprintf(stderr,
                 "resilient: UNVERIFIED after %zu attempts — %s\n",
                 report->attempts.size(),
                 report->refine.verification.ToString().c_str());
    return 1;
  }
  return 0;
}

int Sweep(core::ApproxSortEngine& engine, const sort::AlgorithmId& algorithm,
          const std::vector<uint32_t>& keys) {
  TablePrinter table(algorithm.Name() + ": write reduction vs T");
  table.SetHeader({"T", "p(t)", "Rem~", "WR_measured", "WR_predicted"});
  for (double t = 0.03; t <= 0.0901; t += 0.005) {
    const auto outcome = engine.SortApproxRefine(keys, algorithm, t);
    if (!outcome.ok()) {
      std::fprintf(stderr, "%s\n", outcome.status().ToString().c_str());
      return 1;
    }
    if (!outcome->refine.verified()) {
      std::fprintf(stderr, "sweep: UNVERIFIED output at T=%.3f — %s\n", t,
                   outcome->refine.verification.ToString().c_str());
      return 1;
    }
    table.AddRow(
        {TablePrinter::Fmt(t, 3),
         TablePrinter::Fmt(engine.WriteCostRatio(t), 3),
         TablePrinter::FmtInt(
             static_cast<long long>(outcome->refine.rem_estimate)),
         TablePrinter::FmtPercent(outcome->write_reduction, 2),
         TablePrinter::FmtPercent(outcome->predicted_write_reduction, 2)});
  }
  table.Print();
  return 0;
}

int Recommend(core::ApproxSortEngine& engine,
              const sort::AlgorithmId& algorithm, size_t n, double t,
              size_t rem) {
  const double p = engine.WriteCostRatio(t);
  const double wr = refine::PredictWriteReduction(algorithm, n, p, rem);
  const bool use = refine::ShouldUseApproxRefine(algorithm, n, p, rem);
  std::printf("%s, n=%zu, knob=%s (cost ratio %.3f), expected Rem~=%zu:\n",
              algorithm.Name().c_str(), n, FmtKnob(t).c_str(), p, rem);
  std::printf("  predicted write reduction %.2f%% -> use %s\n", wr * 100.0,
              use ? "approx-refine" : "precise-only sorting");
  return 0;
}

// One fuzz case driven through SortResilient (health monitoring on): the
// ladder must end with a verified, exactly sorted output whatever the
// fault storm did, and the final keys must match a std::sort of the input.
testing::OracleReport RunResilientFuzzCase(
    const testing::OracleCase& oracle_case,
    const std::shared_ptr<mlc::CalibrationCache>& cache, uint64_t trials,
    bool inject) {
  testing::OracleReport report;
  report.oracle_case = oracle_case;
  report.digest = Fnv1a64(nullptr, 0);

  const double t = testing::TFromPaperLabel(oracle_case.paper_t);
  const std::vector<uint32_t> input =
      testing::MakeInput(oracle_case.shape, oracle_case.n, oracle_case.seed);

  core::EngineOptions engine_options;
  engine_options.calibration_trials = trials;
  engine_options.seed = oracle_case.seed;
  engine_options.shared_calibration = cache;
  engine_options.health.enabled = true;
  engine_options.sort_threads = oracle_case.sort_threads;
  std::unique_ptr<testing::FaultInjector> injector;
  if (inject) {
    injector = std::make_unique<testing::FaultInjector>(
        testing::FaultPlan::ApproxStorm(oracle_case.seed));
    engine_options.fault_hook = injector.get();
  }
  core::ApproxSortEngine engine(engine_options);

  std::vector<uint32_t> final_keys;
  std::vector<uint32_t> final_ids;
  const auto result = core::SortResilient(
      engine, input, oracle_case.algorithm, t, core::ResilienceOptions{},
      &final_keys, &final_ids);
  if (!result.ok()) {
    report.failures.push_back(
        testing::OracleFailure{"engine-status", result.status().ToString()});
    return report;
  }
  report.rem_estimate = result->refine.rem_estimate;
  report.write_reduction = result->write_reduction;
  if (!result->verified) {
    report.failures.push_back(testing::OracleFailure{
        "resilient-verified",
        "ladder exhausted unverified after " +
            std::to_string(result->attempts.size()) + " attempts: " +
            result->refine.verification.ToString()});
  }
  std::vector<uint32_t> golden = input;
  std::sort(golden.begin(), golden.end());
  if (final_keys != golden) {
    report.failures.push_back(testing::OracleFailure{
        "golden-keys", "resilient output does not match std::sort"});
  }
  report.ok = report.failures.empty();
  const uint64_t attempt_digest = result->AttemptDigest();
  report.digest =
      Fnv1a64(&attempt_digest, sizeof(attempt_digest),
              report.digest);
  if (!final_keys.empty()) {
    report.digest =
        Fnv1a64(final_keys.data(),
                final_keys.size() * sizeof(uint32_t), report.digest);
  }
  if (!final_ids.empty()) {
    report.digest =
        Fnv1a64(final_ids.data(),
                final_ids.size() * sizeof(uint32_t), report.digest);
  }
  return report;
}

// Randomized differential-oracle fuzzing, bounded by wall time and/or a
// case count. Every case draws a fresh (n, T, algorithm, shape) tuple and,
// with --inject (default on), an approx-domain fault storm; the refine
// guarantee must hold through all of it. With --resilient=1 each case runs
// through SortResilient (monitoring on) instead of the plain oracle.
// Deterministic per --seed: the verdict of case index i never depends on
// time or thread count — the time bound only decides how many indices get
// run.
int Fuzz(const Flags& flags, uint64_t seed) {
  const double seconds = flags.GetDouble("seconds", 60.0);
  const size_t max_cases = static_cast<size_t>(flags.GetInt("cases", 0));
  const bool inject = flags.GetBool("inject", true);
  const bool resilient = flags.GetBool("resilient", false);

  testing::RunnerOptions runner;
  runner.seed = seed;
  runner.threads = static_cast<int>(flags.GetInt("threads", 1));
  runner.max_n = static_cast<size_t>(flags.GetInt("n_max", 512));

  // One shared calibration cache across all cases: each T calibrates once.
  const uint64_t trials =
      static_cast<uint64_t>(flags.GetInt("calibration_trials", 5000));
  auto cache = std::make_shared<mlc::CalibrationCache>(
      mlc::MlcConfig{}, trials, seed ^ 0xca11b7a7e5eedULL);

  const auto check = [&](const testing::OracleCase& oracle_case) {
    if (resilient) {
      return RunResilientFuzzCase(oracle_case, cache, trials, inject);
    }
    testing::OracleOptions oracle;
    oracle.calibration_trials = trials;
    oracle.shared_calibration = cache;
    if (inject) {
      testing::FaultPlan plan =
          testing::FaultPlan::ApproxStorm(oracle_case.seed);
      testing::FaultInjector injector(plan);
      testing::OracleOptions with_faults = oracle;
      with_faults.injector = &injector;
      return testing::RunDifferentialOracle(oracle_case, with_faults);
    }
    return testing::RunDifferentialOracle(oracle_case, oracle);
  };

  const auto start = std::chrono::steady_clock::now();
  const auto deadline = start + std::chrono::duration<double>(seconds);
  const int concurrency = runner.threads <= 0 ? ThreadPool::HardwareThreads()
                                              : runner.threads;
  const size_t batch =
      concurrency == 1 ? 8 : static_cast<size_t>(concurrency) * 4;
  size_t next_index = 0;
  size_t total = 0;
  while (std::chrono::steady_clock::now() < deadline &&
         (max_cases == 0 || total < max_cases)) {
    size_t count = batch;
    if (max_cases != 0) count = std::min(count, max_cases - total);
    std::vector<testing::OracleCase> cases(count);
    for (size_t i = 0; i < count; ++i) {
      cases[i] = testing::MakeRandomCase(runner, next_index++);
    }
    const testing::RunnerResult result =
        testing::RunCases(runner, cases, check);
    total += result.cases_run;
    if (!result.ok()) {
      const testing::OracleReport& bad = *result.minimized;
      std::fprintf(stderr, "FAIL after %zu cases\n", total);
      std::fprintf(stderr, "  %s\n", bad.FailureSummary().c_str());
      std::fprintf(stderr,
                   "  repro: seed=%llu n=%zu T=%d algo=%s shape=%s "
                   "inject=%d\n",
                   static_cast<unsigned long long>(bad.oracle_case.seed),
                   bad.oracle_case.n, bad.oracle_case.paper_t,
                   bad.oracle_case.algorithm.Name().c_str(),
                   testing::ShapeName(bad.oracle_case.shape).c_str(),
                   inject ? 1 : 0);
      return 1;
    }
    std::printf("fuzz: %zu cases ok (%.1fs elapsed)\n", total,
                std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                              start)
                    .count());
    std::fflush(stdout);
  }
  std::printf("fuzz: PASS — %zu cases, 0 failures (seed=%llu)\n", total,
              static_cast<unsigned long long>(seed));
  return 0;
}

// Scripted request-trace driver for the multi-tenant sort service. No
// network: the trace is generated from --seed and replayed through
// SortService::Run, which is exactly how the concurrency and property
// suites drive it, so any anomaly seen here replays in a test verbatim.
int Serve(const Flags& flags, uint64_t seed) {
  service::ServiceOptions options;
  options.shards = static_cast<int>(flags.GetInt("shards", 4));
  options.threads = static_cast<int>(flags.GetInt("threads", 0));
  options.seed = seed;
  options.calibration_trials =
      static_cast<uint64_t>(flags.GetInt("calibration_trials", 20000));
  options.admission.queue_capacity =
      static_cast<size_t>(flags.GetInt("queue", 64));
  options.admission.shard_batch_quota =
      static_cast<int>(flags.GetInt("quota", 4));
  options.admission.max_deferrals =
      static_cast<int>(flags.GetInt("max_deferrals", 3));
  const bool endurance = flags.GetBool("endurance", false);
  if (endurance) {
    options.endurance.enabled = true;
    options.endurance.age_multiplier =
        flags.GetDouble("age_multiplier", 1.0);
    options.endurance.bank_budget_pv =
        flags.GetDouble("bank_budget_pv", 4.0e6);
  }
  const bool inject = flags.GetBool("inject", false);
  if (inject) {
    options.fault_hook_factory =
        [seed](int shard) -> std::unique_ptr<approx::MemoryFaultHook> {
      return std::make_unique<testing::FaultInjector>(
          testing::FaultPlan::ApproxStorm(
              seed ^ (0x5eedULL + static_cast<uint64_t>(shard))));
    };
  }
  service::SortService service(options);

  struct Profile {
    const char* name;
    const char* backend;
  };
  static constexpr Profile kProfiles[] = {
      {"tenant-pcm", "mlc-pcm"},
      {"tenant-banked", "mlc-pcm-banked"},
      {"tenant-spin", "spintronic"},
  };
  const size_t tenant_count = std::min<size_t>(
      std::max<int64_t>(flags.GetInt("tenants", 3), 1), 3);
  const double cost_quota = flags.GetDouble("cost_quota", 0.0);
  const auto register_tenants =
      [&](service::SortService& target) -> Status {
    for (size_t i = 0; i < tenant_count; ++i) {
      service::TenantSpec tenant;
      tenant.name = kProfiles[i].name;
      tenant.backend = kProfiles[i].backend;
      tenant.seed = seed + i;
      tenant.epoch_cost_quota = cost_quota;
      const Status status = target.RegisterTenant(tenant);
      if (!status.ok()) return status;
    }
    return Status::Ok();
  };
  std::vector<std::string> tenant_names;
  for (size_t i = 0; i < tenant_count; ++i) {
    tenant_names.push_back(kProfiles[i].name);
  }
  {
    const Status status = register_tenants(service);
    if (!status.ok()) {
      std::fprintf(stderr, "%s\n", status.ToString().c_str());
      return 1;
    }
  }

  service::TraceGenOptions gen;
  gen.seed = seed;
  gen.tenants = tenant_names;
  gen.bursts = static_cast<size_t>(flags.GetInt("bursts", 6));
  gen.max_burst_jobs = static_cast<size_t>(flags.GetInt("burst_jobs", 8));
  gen.max_n = static_cast<size_t>(flags.GetInt("n_max", 512));
  gen.extsort_fraction = flags.GetDouble("extsort_frac", 0.0);
  const service::RequestTrace trace = service::MakeRandomTrace(gen);
  size_t extsort_jobs = 0;
  for (const auto& burst : trace.bursts) {
    for (const service::SortRequest& request : burst) {
      if (request.job_class == core::JobClass::kExtSort) ++extsort_jobs;
    }
  }

  std::printf("serve: %zu jobs (%zu extsort) in %zu bursts over %zu "
              "tenants, %d shards (seed=%llu%s)\n",
              trace.TotalJobs(), extsort_jobs, trace.bursts.size(),
              tenant_count, options.shards,
              static_cast<unsigned long long>(seed),
              inject ? ", fault storm on" : "");
  const auto start = std::chrono::steady_clock::now();
  const service::ServiceStats stats = service.Run(trace);
  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();

  TablePrinter tenants_table("per-tenant ledgers");
  tenants_table.SetHeader({"tenant", "done", "failed", "shed", "deferrals",
                           "write_cost", "cum_WR", "ledger_digest"});
  for (const std::string& name : tenant_names) {
    const service::TenantLedger ledger = service.tenant_ledger(name);
    char digest[32];
    std::snprintf(digest, sizeof(digest), "%016llx",
                  static_cast<unsigned long long>(ledger.Digest()));
    tenants_table.AddRow(
        {name,
         TablePrinter::FmtInt(static_cast<long long>(ledger.jobs_completed)),
         TablePrinter::FmtInt(static_cast<long long>(ledger.jobs_failed)),
         TablePrinter::FmtInt(static_cast<long long>(ledger.jobs_shed)),
         TablePrinter::FmtInt(
             static_cast<long long>(ledger.deferral_events)),
         TablePrinter::Fmt(ledger.cost.write_cost / 1e6, 3),
         TablePrinter::FmtPercent(ledger.CumulativeWriteReduction(), 2),
         digest});
  }
  tenants_table.Print();

  TablePrinter shards_table("per-shard substrate");
  shards_table.SetHeader({"shard", "wear_imbalance", "quarantine_events",
                          "regions_quarantined", "alloc_retries"});
  for (int s = 0; s < options.shards; ++s) {
    const service::WearPlacement& wear = service.shard_wear(s);
    const approx::HealthStats health = service.shard_health(s);
    shards_table.AddRow(
        {TablePrinter::FmtInt(s), TablePrinter::Fmt(wear.WearImbalance(), 3),
         TablePrinter::FmtInt(
             static_cast<long long>(wear.quarantine_events())),
         TablePrinter::FmtInt(
             static_cast<long long>(health.regions_quarantined)),
         TablePrinter::FmtInt(
             static_cast<long long>(health.allocation_retries))});
  }
  shards_table.Print();

  if (endurance) {
    TablePrinter lifetime("per-shard device lifetime");
    lifetime.SetHeader({"shard", "wear_epoch", "live_banks", "max_esc",
                        "capacity", "retirements (bank@vtime reason)"});
    for (int s = 0; s < options.shards; ++s) {
      const approx::EnduranceLedger* ledger = service.shard_endurance(s);
      std::string events;
      for (const approx::RetirementEvent& event : ledger->retirements()) {
        if (!events.empty()) events += " ";
        events += std::to_string(event.bank) + "@" +
                  std::to_string(event.virtual_time) + " " +
                  (event.reason ==
                           approx::RetirementReason::kBudgetExhausted
                       ? "budget"
                       : "canary");
      }
      if (events.empty()) events = "-";
      lifetime.AddRow(
          {TablePrinter::FmtInt(s),
           TablePrinter::FmtInt(static_cast<long long>(ledger->wear_epoch())),
           TablePrinter::FmtInt(ledger->live_banks()) + "/" +
               TablePrinter::FmtInt(ledger->total_banks()),
           TablePrinter::FmtInt(ledger->MaxLiveEscalationLevel()),
           TablePrinter::FmtPercent(ledger->CapacityFraction(), 0),
           events});
    }
    lifetime.Print();
    std::printf("  lifetime          %llu banks retired, %zu jobs shed on "
                "exhausted substrate, p99 drift x%.3f\n",
                static_cast<unsigned long long>(stats.banks_retired),
                stats.jobs_shed_exhausted, service.slo().P99DriftRatio());
  }

  std::printf("  batches           %zu (%zu shard-batches in cooldown)\n",
              stats.batches, stats.cooldown_batches);
  std::printf("  jobs              %zu submitted, %zu completed, %zu failed, "
              "%zu shed (%zu on quota)\n",
              stats.jobs_submitted, stats.jobs_completed, stats.jobs_failed,
              stats.jobs_shed, stats.jobs_shed_quota);
  std::printf("  backlog           high water %zu (capacity %zu), "
              "%zu deferral events\n",
              stats.backlog_high_water, options.admission.queue_capacity,
              stats.deferral_events);
  // Deterministic virtual-time latency: pure function of the trace and
  // cost ledgers, unlike the wall-clock line below.
  {
    std::vector<double> virtual_latencies;
    for (const service::JobRecord& record : service.jobs()) {
      if (record.state == service::JobState::kCompleted) {
        virtual_latencies.push_back(record.virtual_latency_us);
      }
    }
    std::sort(virtual_latencies.begin(), virtual_latencies.end());
    const auto percentile = [&](double p) {
      if (virtual_latencies.empty()) return 0.0;
      const size_t index = static_cast<size_t>(
          p * static_cast<double>(virtual_latencies.size() - 1));
      return virtual_latencies[index];
    };
    std::printf("  virtual latency   p50 %.1f us, p99 %.1f us "
                "(clock end %.1f us)\n",
                percentile(0.50), percentile(0.99),
                service.virtual_now_us());
  }
  std::printf("  throughput        %.1f jobs/sec (%.3fs wall)\n",
              elapsed > 0.0 ? static_cast<double>(stats.jobs_completed) /
                                  elapsed
                            : 0.0,
              elapsed);

  if (flags.GetBool("replay_check", false)) {
    // Same trace on a threads=1 service: every per-tenant ledger digest
    // (keys, costs, counts) must be byte-identical — the tentpole's
    // determinism contract, checked end to end from the CLI.
    service::ServiceOptions replay_options = options;
    replay_options.threads = 1;
    service::SortService replay(replay_options);
    const Status status = register_tenants(replay);
    if (!status.ok()) {
      std::fprintf(stderr, "%s\n", status.ToString().c_str());
      return 1;
    }
    replay.Run(trace);
    bool match = true;
    for (const std::string& name : tenant_names) {
      const uint64_t threaded = service.tenant_ledger(name).Digest();
      const uint64_t serial = replay.tenant_ledger(name).Digest();
      if (threaded != serial) match = false;
    }
    match = match && replay.virtual_now_us() == service.virtual_now_us();
    std::printf("  replay threads=1  per-tenant ledger digests -> %s\n",
                match ? "MATCH" : "MISMATCH");
    if (!match) {
      std::fprintf(stderr,
                   "serve: ledger digest MISMATCH between threads=%d and "
                   "threads=1\n",
                   options.threads);
      return 1;
    }
  }

  // Aged banks genuinely err more, so an endurance run may exhaust the
  // ladder late in life; only a fault-free, wear-free run must be clean.
  if (!inject && !endurance && stats.jobs_failed > 0) {
    std::fprintf(stderr, "serve: %zu jobs FAILED without fault injection\n",
                 stats.jobs_failed);
    return 1;
  }
  return 0;
}

// Out-of-core external sort on the virtual block device. One run_once
// builds a fresh engine (shared calibration cache, same seed), stages the
// input file, and sorts it under the budget; --replay_check runs the whole
// thing again at threads=1 and insists on byte-identical digests — the
// determinism contract the async overlap must not break.
int Extsort(const Flags& flags, const sort::AlgorithmId& algorithm,
            const std::vector<uint32_t>& keys, double t,
            const core::EngineOptions& engine_options) {
  extsort::AsyncDeviceConfig device_config;
  device_config.block_bytes =
      static_cast<size_t>(flags.GetInt("block_kb", 4)) * 1024;
  device_config.bandwidth_mb_per_s = flags.GetDouble("bandwidth_mb", 400.0);
  device_config.latency_us = flags.GetDouble("latency_us", 100.0);
  device_config.queue_depth =
      static_cast<int>(flags.GetInt("queue_depth", 4));
  const Status device_ok = device_config.Validate();
  if (!device_ok.ok()) {
    std::fprintf(stderr, "%s\n", device_ok.ToString().c_str());
    return 2;
  }

  extsort::ExternalSortOptions sort_options;
  sort_options.memory_budget_bytes =
      static_cast<size_t>(flags.GetInt("budget_mb", 8)) << 20;
  sort_options.algorithm = algorithm;
  sort_options.t = t;
  sort_options.use_approx_refine = !flags.GetBool("precise", false);
  sort_options.run_elements =
      static_cast<size_t>(flags.GetInt("run_elements", 0));
  sort_options.merge_fan_in = static_cast<size_t>(flags.GetInt("fan_in", 0));
  sort_options.verify = flags.GetBool("verify", true);
  sort_options.record_payloads = flags.GetBool("payloads", false);

  // One calibration cache across every engine this command builds, so the
  // replay and comparison runs see identical cell models.
  core::EngineOptions base = engine_options;
  if (base.shared_calibration == nullptr) {
    base.shared_calibration = std::make_shared<mlc::CalibrationCache>(
        base.mlc, base.calibration_trials, base.seed ^ 0xca11b7a7e5eedULL);
  }

  const auto run_once = [&](int threads,
                            const extsort::ExternalSortOptions& options)
      -> StatusOr<extsort::ExternalSortReport> {
    std::unique_ptr<ThreadPool> pool;
    if (threads != 1) pool = std::make_unique<ThreadPool>(threads);
    core::ApproxSortEngine engine(base);
    extsort::AsyncDevice device(device_config, pool.get());
    const int input = device.CreateFile();
    device.Wait(device.SubmitWrite(input, keys, 0.0));
    device.ResetClock();
    int output = -1;
    return extsort::ExternalSort(engine, device, input, options, &output);
  };

  int threads = static_cast<int>(flags.GetInt("threads", 2));
  if (threads <= 0) threads = ThreadPool::HardwareThreads();
  const auto wall_start = std::chrono::steady_clock::now();
  const auto report = run_once(threads, sort_options);
  if (!report.ok()) {
    std::fprintf(stderr, "%s\n", report.status().ToString().c_str());
    return 1;
  }
  const double wall_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    wall_start)
          .count();

  const extsort::PhaseMetrics total = report->Total();
  std::printf("extsort: %zu keys, %zu MiB budget, %d I/O threads "
              "(%s, knob=%s, %s%s):\n",
              report->n, sort_options.memory_budget_bytes >> 20, threads,
              algorithm.Name().c_str(), FmtKnob(t).c_str(),
              sort_options.use_approx_refine ? "approx-refine" : "precise",
              sort_options.record_payloads ? ", <key,rowid> records" : "");
  std::printf("  initial runs      %zu x %zu elements, fan-in %zu, "
              "%zu merge pass(es)\n",
              report->initial_runs, report->run_elements,
              report->merge_fan_in, report->merge_passes);
  std::printf("  bytes spilled     %.1f MiB (device wrote %.1f MiB, "
              "read %.1f MiB)\n",
              static_cast<double>(report->bytes_spilled) / (1 << 20),
              static_cast<double>(report->device.bytes_written) / (1 << 20),
              static_cast<double>(report->device.bytes_read) / (1 << 20));
  std::printf("  run formation     overlap %.3f (io %.2fs + compute %.2fs "
              "over %.2fs makespan)\n",
              report->run_formation.OverlapRatio(),
              report->run_formation.io_busy_us / 1e6,
              report->run_formation.compute_us / 1e6,
              report->run_formation.makespan_us / 1e6);
  std::printf("  merge             overlap %.3f (io %.2fs + compute %.2fs "
              "over %.2fs makespan)\n",
              report->merge.OverlapRatio(), report->merge.io_busy_us / 1e6,
              report->merge.compute_us / 1e6, report->merge.makespan_us / 1e6);
  std::printf("  total             overlap %.3f, %.3fs wall\n",
              total.OverlapRatio(), wall_s);
  std::printf("  memory write cost %.3f ms (reads %.3f ms), Rem~ total %zu\n",
              report->memory_write_cost / 1e6, report->memory_read_cost / 1e6,
              report->total_rem);
  std::printf("  budget high water %zu / %zu bytes\n",
              report->budget_high_water, sort_options.memory_budget_bytes);
  std::printf("  spill digest      %016llx\n",
              static_cast<unsigned long long>(report->spill_digest));
  std::printf("  output digest     %016llx\n",
              static_cast<unsigned long long>(report->output_digest));
  std::printf("  verified          %s\n", report->verified ? "yes" : "NO");
  if (!report->verified) {
    std::fprintf(stderr, "extsort: output FAILED verification\n");
    return 1;
  }

  if (flags.GetBool("compare", false)) {
    extsort::ExternalSortOptions other = sort_options;
    other.use_approx_refine = !sort_options.use_approx_refine;
    const auto baseline = run_once(threads, other);
    if (!baseline.ok()) {
      std::fprintf(stderr, "%s\n", baseline.status().ToString().c_str());
      return 1;
    }
    const double approx_cost = sort_options.use_approx_refine
                                   ? report->memory_write_cost
                                   : baseline->memory_write_cost;
    const double precise_cost = sort_options.use_approx_refine
                                    ? baseline->memory_write_cost
                                    : report->memory_write_cost;
    std::printf("  write reduction   %.2f%% (Eq. 2 at scale: approx-refine "
                "%.3f ms vs precise %.3f ms; identical disk traffic)\n",
                precise_cost > 0.0
                    ? (1.0 - approx_cost / precise_cost) * 100.0
                    : 0.0,
                approx_cost / 1e6, precise_cost / 1e6);
    if (!baseline->verified) {
      std::fprintf(stderr, "extsort: comparison run FAILED verification\n");
      return 1;
    }
  }

  if (flags.GetBool("replay_check", false)) {
    const auto replay = run_once(1, sort_options);
    if (!replay.ok()) {
      std::fprintf(stderr, "%s\n", replay.status().ToString().c_str());
      return 1;
    }
    const bool match = replay->spill_digest == report->spill_digest &&
                       replay->output_digest == report->output_digest;
    std::printf("  replay threads=1  spill %016llx output %016llx -> %s\n",
                static_cast<unsigned long long>(replay->spill_digest),
                static_cast<unsigned long long>(replay->output_digest),
                match ? "MATCH" : "MISMATCH");
    if (!match) {
      std::fprintf(stderr,
                   "extsort: digest MISMATCH between threads=%d and "
                   "threads=1\n",
                   threads);
      return 1;
    }
  }
  return 0;
}

int Main(int argc, char** argv) {
  StatusOr<Flags> flags = Flags::Parse(argc, argv);
  if (!flags.ok()) {
    std::fprintf(stderr, "%s\n%s", flags.status().ToString().c_str(), kUsage);
    return 2;
  }
  const Status listed = flags->CheckListedIn(kUsage);
  if (!listed.ok()) {
    std::fprintf(stderr, "%s\n%s", listed.ToString().c_str(), kUsage);
    return 2;
  }
  const std::string cmd = flags->GetString("cmd", "");
  if (cmd.empty() || flags->Has("help")) {
    std::fputs(kUsage, stdout);
    return cmd.empty() ? 2 : 0;
  }

  if (cmd == "fuzz") {
    return Fuzz(*flags, static_cast<uint64_t>(flags->GetInt("seed", 42)));
  }
  if (cmd == "serve") {
    return Serve(*flags, static_cast<uint64_t>(flags->GetInt("seed", 42)));
  }

  core::EngineOptions options;
  options.backend = flags->GetString("backend", options.backend);
  if (!approx::IsRegisteredBackend(options.backend)) {
    std::string registered;
    for (const std::string& name : approx::RegisteredBackendNames()) {
      if (!registered.empty()) registered += ", ";
      registered += name;
    }
    std::fprintf(stderr, "unknown --backend=%s (registered: %s)\n%s",
                 options.backend.c_str(), registered.c_str(), kUsage);
    return 2;
  }
  options.seed = static_cast<uint64_t>(flags->GetInt("seed", 42));
  options.calibration_trials =
      static_cast<uint64_t>(flags->GetInt("calibration_trials", 200000));
  if (flags->GetBool("exact", false)) {
    options.mode = approx::SimulationMode::kExact;
  }
  options.sort_threads = static_cast<int>(flags->GetInt("sort_threads", 1));
  core::ApproxSortEngine engine(options);

  if (cmd == "calibrate") return Calibrate(engine, *flags);

  const auto algorithm =
      sort::ParseAlgorithm(flags->GetString("algo", "lsd3"));
  if (!algorithm.ok()) {
    std::fprintf(stderr, "%s\n%s", algorithm.status().ToString().c_str(),
                 kUsage);
    return 2;
  }
  const size_t n = static_cast<size_t>(flags->GetInt("n", 100000));
  // Without --t, run at the backend's sweet spot (0.055 on MLC PCM, the
  // 33%-saving operating point on spintronic, exact on dram-precise).
  const double t =
      flags->Has("t") ? flags->GetDouble("t", 0.055)
                      : engine.memory().backend().default_approx_knob();

  if (cmd == "recommend") {
    const size_t rem =
        static_cast<size_t>(flags->GetInt("rem", static_cast<int64_t>(n / 100)));
    return Recommend(engine, *algorithm, n, t, rem);
  }

  const auto workload =
      core::ParseWorkloadKind(flags->GetString("workload", "uniform"));
  if (!workload.ok()) {
    std::fprintf(stderr, "%s\n", workload.status().ToString().c_str());
    return 2;
  }
  const auto keys = core::MakeKeys(*workload, n, options.seed);

  if (cmd == "study") return Study(engine, *algorithm, keys, t);
  if (cmd == "refine" || cmd == "sort") {
    return Refine(engine, *algorithm, keys, t);
  }
  if (cmd == "sweep") return Sweep(engine, *algorithm, keys);
  if (cmd == "extsort") return Extsort(*flags, *algorithm, keys, t, options);
  if (cmd == "resilient") {
    return Resilient(*flags, *algorithm, keys, t, options);
  }

  std::fprintf(stderr, "unknown --cmd=%s\n%s", cmd.c_str(), kUsage);
  return 2;
}

}  // namespace
}  // namespace approxmem

int main(int argc, char** argv) { return approxmem::Main(argc, argv); }
