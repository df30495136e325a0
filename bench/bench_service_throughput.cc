// Service-layer throughput: drives the multi-tenant SortService with a
// deterministic bursty trace at one shard and at four shards, and reports
// jobs/sec, p50/p99 latency — both wall-clock (host-dependent, printed
// for humans) and virtual-time (computed from the modeled cost ledgers,
// bit-identical on every host) — plus each tenant's cumulative Equation 2
// write reduction. The wall-clock table and the shard-scaling ratio are
// advisory; the virtual-time tables are written to service_virtual.csv,
// service_tenants.csv and service_parity.csv, which ctest pins byte for
// byte (GoldenParity.service_*).
//
// A second section runs one out-of-core job twice — through the service's
// admission queue and as a bare ExtsortJobPlan on an identically seeded
// engine — and reports the write-cost parity ratio. The bench exits 1 when
// |1 - parity| > 1%: the service must charge tenants exactly what the
// standalone external sort pays, no hidden cost either way.
//
// Extra flags: --jobs=48 (total trace jobs), --calibration_trials=20000.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_lib.h"
#include "common/table_printer.h"
#include "extsort/extsort_plan.h"
#include "service/sort_service.h"

namespace approxmem {
namespace {

/// Largest |1 - extsort cost parity| the bench accepts.
constexpr double kParityTolerance = 0.01;

constexpr struct {
  const char* name;
  const char* backend;
} kTenants[] = {
    {"tenant-pcm", "mlc-pcm"},
    {"tenant-banked", "mlc-pcm-banked"},
    {"tenant-spin", "spintronic"},
};

struct ServiceRun {
  double wall_seconds = 0.0;
  double jobs_per_sec = 0.0;
  double p50_ms = 0.0;
  double p99_ms = 0.0;
  /// Virtual-time percentiles over completed jobs, in modeled µs. Pure
  /// functions of (trace, config): identical on every host and at every
  /// thread count, so the golden CSV pins these, not the wall clock.
  double virtual_p50_us = 0.0;
  double virtual_p99_us = 0.0;
  service::ServiceStats stats;
  std::vector<double> tenant_wr;  // Parallel to kTenants.
};

double Percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t index = static_cast<size_t>(
      q * static_cast<double>(values.size() - 1) + 0.5);
  return values[std::min(index, values.size() - 1)];
}

ServiceRun RunAtShards(const bench::BenchEnv& env, int shards, size_t jobs,
                       uint64_t trials,
                       const std::shared_ptr<mlc::CalibrationCache>& cache) {
  service::ServiceOptions options;
  options.shards = shards;
  options.threads = env.threads;
  options.seed = env.seed;
  options.calibration_trials = trials;
  options.shared_calibration = cache;
  // Throughput measurement: a queue large enough that admission control
  // never sheds, so both shard counts run the identical job set.
  options.admission.queue_capacity = jobs + 1;
  service::SortService sort_service(options);
  std::vector<std::string> tenant_names;
  for (const auto& profile : kTenants) {
    service::TenantSpec tenant;
    tenant.name = profile.name;
    tenant.backend = profile.backend;
    tenant.seed = env.seed;
    const Status status = sort_service.RegisterTenant(tenant);
    if (!status.ok()) {
      std::fprintf(stderr, "%s\n", status.ToString().c_str());
      std::exit(1);
    }
    tenant_names.push_back(tenant.name);
  }

  service::TraceGenOptions gen;
  gen.seed = env.seed;
  gen.tenants = tenant_names;
  gen.max_burst_jobs = 8;
  gen.bursts = (jobs + gen.max_burst_jobs - 1) / gen.max_burst_jobs;
  gen.min_n = env.n / 4 > 16 ? env.n / 4 : 16;
  gen.max_n = env.n;
  const service::RequestTrace trace = service::MakeRandomTrace(gen);

  ServiceRun run;
  const auto start = std::chrono::steady_clock::now();
  run.stats = sort_service.Run(trace);
  run.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  run.jobs_per_sec =
      run.wall_seconds > 0.0
          ? static_cast<double>(run.stats.jobs_completed) / run.wall_seconds
          : 0.0;

  std::vector<double> latencies;
  std::vector<double> virtual_latencies;
  for (const service::JobRecord& record : sort_service.jobs()) {
    if (record.state == service::JobState::kCompleted) {
      latencies.push_back(record.latency_seconds * 1e3);
      virtual_latencies.push_back(record.virtual_latency_us);
    }
  }
  run.p50_ms = Percentile(latencies, 0.50);
  run.p99_ms = Percentile(latencies, 0.99);
  run.virtual_p50_us = Percentile(virtual_latencies, 0.50);
  run.virtual_p99_us = Percentile(virtual_latencies, 0.99);
  for (const std::string& name : tenant_names) {
    run.tenant_wr.push_back(
        sort_service.tenant_ledger(name).CumulativeWriteReduction());
  }
  if (run.stats.jobs_failed > 0 || run.stats.jobs_shed > 0) {
    std::fprintf(stderr,
                 "service bench: %zu failed / %zu shed jobs at %d shards — "
                 "throughput numbers would be dishonest\n",
                 run.stats.jobs_failed, run.stats.jobs_shed, shards);
    std::exit(1);
  }
  return run;
}

/// Runs one out-of-core job through the service, then the identical
/// ExtsortJobPlan standalone on an identically seeded engine, and returns
/// (service write cost) / (standalone write cost). The plans rebase every
/// RNG stream from (engine seed, ticket), so the two executions must
/// charge the same Equation 2 cost — Main fails the bench unless the ratio
/// is within kParityTolerance of 1.0.
double ExtsortCostParity(const bench::BenchEnv& env, uint64_t trials,
                         const std::shared_ptr<mlc::CalibrationCache>& cache,
                         double* service_cost, double* standalone_cost) {
  service::TenantSpec tenant;
  tenant.name = kTenants[0].name;
  tenant.backend = kTenants[0].backend;
  tenant.seed = env.seed;

  service::SortRequest request;
  request.tenant = tenant.name;
  request.job_class = core::JobClass::kExtSort;
  request.n = 64 * 1024;  // ~6 runs under the default 512 KiB lease.
  request.seed = env.seed;
  service::RequestTrace trace;
  trace.bursts.push_back({request});

  service::ServiceOptions options;
  options.shards = 1;
  options.threads = 1;
  options.seed = env.seed;
  options.calibration_trials = trials;
  options.shared_calibration = cache;
  service::SortService sort_service(options);
  Status status = sort_service.RegisterTenant(tenant);
  if (!status.ok()) {
    std::fprintf(stderr, "%s\n", status.ToString().c_str());
    std::exit(1);
  }
  sort_service.Run(trace);
  const service::JobRecord& record = sort_service.jobs().front();
  if (record.state != service::JobState::kCompleted) {
    std::fprintf(stderr, "parity job did not complete: %s\n",
                 record.status.ToString().c_str());
    std::exit(1);
  }

  // The standalone substrate mirrors EngineFor: the same shard-0 seed,
  // health monitoring on, and a fresh wear-aware placement policy — so any
  // residual cost difference is the service's own doing, not setup skew.
  service::WearLevelOptions wear_options;
  service::WearPlacement wear(wear_options);
  core::EngineOptions engine_options;
  engine_options.backend = tenant.backend;
  engine_options.seed = service::ShardEngineSeed(env.seed, 0, tenant);
  engine_options.calibration_trials = trials;
  engine_options.shared_calibration = cache;
  engine_options.health.enabled = true;
  engine_options.placement = &wear;
  engine_options.sort_threads = 1;
  core::ApproxSortEngine engine(engine_options);
  wear.BeginJob();
  core::JobContext context;
  context.engine = &engine;
  context.ticket = record.ticket;
  context.knob = record.effective_knob;
  context.resilience = tenant.resilience;
  extsort::ExtsortJobPlan plan(record.request, tenant.extsort);
  const core::JobOutcome outcome = plan.Execute(context);
  if (!outcome.status.ok() || !outcome.verified) {
    std::fprintf(stderr, "standalone parity run failed: %s\n",
                 outcome.status.ToString().c_str());
    std::exit(1);
  }
  *service_cost = record.cost.write_cost;
  *standalone_cost = outcome.cost.write_cost;
  return outcome.cost.write_cost > 0.0
             ? record.cost.write_cost / outcome.cost.write_cost
             : 0.0;
}

int Main(int argc, char** argv) {
  const bench::BenchEnv env = bench::ParseBenchEnv(argc, argv, 512);
  bench::PrintRunHeader("Service throughput: sharded multi-tenant sorting",
                        env);
  const size_t jobs = static_cast<size_t>(env.flags.GetInt("jobs", 48));
  const uint64_t trials =
      static_cast<uint64_t>(env.flags.GetInt("calibration_trials", 20000));
  auto cache = std::make_shared<mlc::CalibrationCache>(
      mlc::MlcConfig{}, trials, env.seed ^ 0xca11b7a7e5eedULL);

  const ServiceRun one = RunAtShards(env, 1, jobs, trials, cache);
  const ServiceRun four = RunAtShards(env, 4, jobs, trials, cache);
  const double scaling =
      one.jobs_per_sec > 0.0 ? four.jobs_per_sec / one.jobs_per_sec : 0.0;

  TablePrinter wall("service throughput (same trace at 1 vs 4 shards; "
                     "wall clock, advisory)");
  wall.SetHeader({"shards", "jobs/sec", "p50_ms", "p99_ms"});
  TablePrinter virtual_time("virtual-time latency (deterministic)");
  virtual_time.SetHeader(
      {"shards", "vp50_us", "vp99_us", "batches", "backlog_hw"});
  for (const auto& [shards, run] :
       {std::pair<int, const ServiceRun&>{1, one}, {4, four}}) {
    wall.AddRow({TablePrinter::FmtInt(shards),
                 TablePrinter::Fmt(run.jobs_per_sec, 1),
                 TablePrinter::Fmt(run.p50_ms, 3),
                 TablePrinter::Fmt(run.p99_ms, 3)});
    virtual_time.AddRow(
        {TablePrinter::FmtInt(shards),
         TablePrinter::Fmt(run.virtual_p50_us, 1),
         TablePrinter::Fmt(run.virtual_p99_us, 1),
         TablePrinter::FmtInt(static_cast<long long>(run.stats.batches)),
         TablePrinter::FmtInt(
             static_cast<long long>(run.stats.backlog_high_water))});
  }
  wall.Print();
  virtual_time.Print();
  bench::WriteCsv(env, virtual_time, "service_virtual.csv");

  TablePrinter tenants("cumulative Eq. 2 write reduction per tenant "
                       "(4 shards)");
  tenants.SetHeader({"tenant", "backend", "cum_WR"});
  for (size_t i = 0; i < std::size(kTenants); ++i) {
    tenants.AddRow({kTenants[i].name, kTenants[i].backend,
                    TablePrinter::FmtPercent(four.tenant_wr[i], 2)});
  }
  tenants.Print();
  bench::WriteCsv(env, tenants, "service_tenants.csv");

  std::printf("\nshard scaling: %.2fx jobs/sec at 4 shards vs 1 (wall "
              "clock, advisory)\n",
              scaling);

  double service_cost = 0.0;
  double standalone_cost = 0.0;
  const double parity =
      ExtsortCostParity(env, trials, cache, &service_cost, &standalone_cost);
  TablePrinter parity_table("extsort cost parity (service vs standalone "
                            "write cost; must be within 1% of 1.0)");
  parity_table.SetHeader({"service_cost", "standalone_cost", "ratio"});
  parity_table.AddRow({TablePrinter::Fmt(service_cost, 1),
                       TablePrinter::Fmt(standalone_cost, 1),
                       TablePrinter::Fmt(parity, 6)});
  parity_table.Print();
  bench::WriteCsv(env, parity_table, "service_parity.csv");
  if (std::abs(1.0 - parity) > kParityTolerance) {
    std::fprintf(stderr,
                 "extsort cost parity %.6f is off 1.0 by more than %.0f%% — "
                 "the service charges a different cost than the standalone "
                 "plan\n",
                 parity, kParityTolerance * 100.0);
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace approxmem

int main(int argc, char** argv) { return approxmem::Main(argc, argv); }
