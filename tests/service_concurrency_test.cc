// Stress matrix for the multi-tenant sort service's determinism contract:
// for a fixed trace and shard count, every job's output digests, cost
// ledger, and placement, and every tenant's cumulative ledger must be
// byte-identical at threads 1/2/4/8 — the threads-1 run IS the serial
// replay the others are compared against. The matrix crosses tenants on
// all four registered backends with clean and fault-storm substrates, and
// is part of the TSan CI job (service-stress), so a data race between
// shards fails loudly rather than as a flaky digest.
#include <algorithm>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/hash.h"
#include "core/workload.h"
#include "mlc/calibration.h"
#include "service/sort_service.h"
#include "testing/fault_injection.h"

namespace approxmem {
namespace {

constexpr uint64_t kSeed = 7;
constexpr uint64_t kCalibrationTrials = 5000;

// One calibration cache for the whole binary: each T calibrates once no
// matter how many service instances the matrix spins up.
std::shared_ptr<mlc::CalibrationCache> SharedCache() {
  static std::shared_ptr<mlc::CalibrationCache> cache =
      std::make_shared<mlc::CalibrationCache>(
          mlc::MlcConfig{}, kCalibrationTrials, kSeed ^ 0xca11b7a7e5eedULL);
  return cache;
}

uint64_t CostDigest(const approx::MemoryStats& stats) {
  uint64_t h = Fnv1a64(&stats.word_reads, sizeof(stats.word_reads));
  h = Fnv1a64(&stats.word_writes, sizeof(stats.word_writes), h);
  h = Fnv1a64(&stats.write_cost, sizeof(stats.write_cost), h);
  h = Fnv1a64(&stats.read_cost, sizeof(stats.read_cost), h);
  h = Fnv1a64(&stats.corrupted_writes,
              sizeof(stats.corrupted_writes), h);
  h = Fnv1a64(&stats.pv_iterations, sizeof(stats.pv_iterations), h);
  h = Fnv1a64(&stats.degraded_regions,
              sizeof(stats.degraded_regions), h);
  return h;
}

/// Everything about one job that must replay identically across thread
/// counts. Wall-clock latency is deliberately absent — but the
/// virtual-time latency is included: it is computed from the cost ledgers
/// alone, so it must replay bit-exactly too.
struct JobSummary {
  service::JobState state = service::JobState::kQueued;
  int shard = -1;
  int batch = -1;
  size_t attempts = 0;
  bool verified = false;
  uint64_t keys_digest = 0;
  uint64_t ids_digest = 0;
  uint64_t cost_digest = 0;
  double virtual_latency_us = 0.0;
  double service_us = 0.0;
  uint64_t bytes_spilled = 0;
  size_t merge_passes = 0;

  bool operator==(const JobSummary& other) const {
    return state == other.state && shard == other.shard &&
           batch == other.batch && attempts == other.attempts &&
           verified == other.verified && keys_digest == other.keys_digest &&
           ids_digest == other.ids_digest &&
           cost_digest == other.cost_digest &&
           virtual_latency_us == other.virtual_latency_us &&
           service_us == other.service_us &&
           bytes_spilled == other.bytes_spilled &&
           merge_passes == other.merge_passes;
  }
};

struct MatrixRun {
  std::vector<JobSummary> jobs;
  std::map<std::string, uint64_t> ledger_digests;
  service::ServiceStats stats;
};

std::vector<service::TenantSpec> MatrixTenants() {
  std::vector<service::TenantSpec> tenants(4);
  tenants[0].name = "alice";
  tenants[0].backend = "mlc-pcm";
  tenants[1].name = "bob";
  tenants[1].backend = "mlc-pcm-banked";
  tenants[1].knob = 0.045;
  tenants[2].name = "carol";
  tenants[2].backend = "spintronic";
  tenants[3].name = "dan";
  tenants[3].backend = "dram-precise";
  return tenants;
}

service::RequestTrace MatrixTrace() {
  service::TraceGenOptions gen;
  gen.seed = kSeed;
  gen.tenants = {"alice", "bob", "carol", "dan"};
  gen.bursts = 4;
  gen.max_burst_jobs = 6;
  gen.min_n = 16;
  gen.max_n = 128;
  // Mix in out-of-core jobs: both plan classes must uphold the same
  // replay contract through one admission queue.
  gen.extsort_fraction = 0.3;
  return service::MakeRandomTrace(gen);
}

MatrixRun RunMatrix(int threads, bool inject) {
  service::ServiceOptions options;
  options.shards = 3;
  options.threads = threads;
  options.seed = kSeed;
  options.calibration_trials = kCalibrationTrials;
  options.shared_calibration = SharedCache();
  if (inject) {
    options.fault_hook_factory =
        [](int shard) -> std::unique_ptr<approx::MemoryFaultHook> {
      return std::make_unique<testing::FaultInjector>(
          testing::FaultPlan::ApproxStorm(
              kSeed ^ (0x5eedULL + static_cast<uint64_t>(shard))));
    };
  }
  service::SortService sort_service(options);
  for (const service::TenantSpec& tenant : MatrixTenants()) {
    EXPECT_TRUE(sort_service.RegisterTenant(tenant).ok());
  }
  MatrixRun run;
  run.stats = sort_service.Run(MatrixTrace());
  for (const service::JobRecord& record : sort_service.jobs()) {
    JobSummary summary;
    summary.state = record.state;
    summary.shard = record.shard;
    summary.batch = record.batch;
    summary.attempts = record.attempts;
    summary.verified = record.verified;
    summary.keys_digest = record.keys_digest;
    summary.ids_digest = record.ids_digest;
    summary.cost_digest = CostDigest(record.cost);
    summary.virtual_latency_us = record.virtual_latency_us;
    summary.service_us = record.service_us;
    summary.bytes_spilled = record.bytes_spilled;
    summary.merge_passes = record.merge_passes;
    run.jobs.push_back(summary);
  }
  for (const std::string& name : sort_service.tenant_names()) {
    run.ledger_digests[name] = sort_service.tenant_ledger(name).Digest();
  }
  return run;
}

void ExpectIdentical(const MatrixRun& reference, const MatrixRun& run,
                     int threads) {
  ASSERT_EQ(reference.jobs.size(), run.jobs.size());
  for (size_t i = 0; i < reference.jobs.size(); ++i) {
    EXPECT_TRUE(reference.jobs[i] == run.jobs[i])
        << "job " << i << " diverged at threads=" << threads;
  }
  EXPECT_EQ(reference.ledger_digests, run.ledger_digests)
      << "tenant ledger diverged at threads=" << threads;
  EXPECT_EQ(reference.stats.batches, run.stats.batches);
  EXPECT_EQ(reference.stats.jobs_completed, run.stats.jobs_completed);
  EXPECT_EQ(reference.stats.jobs_failed, run.stats.jobs_failed);
  EXPECT_EQ(reference.stats.jobs_shed, run.stats.jobs_shed);
  EXPECT_EQ(reference.stats.deferral_events, run.stats.deferral_events);
}

TEST(ServiceConcurrency, ThreadMatrixMatchesSerialReplay) {
  const MatrixRun serial = RunMatrix(1, /*inject=*/false);
  EXPECT_GT(serial.stats.jobs_completed, 0u);
  EXPECT_EQ(serial.stats.jobs_failed, 0u);
  for (const int threads : {2, 4, 8}) {
    ExpectIdentical(serial, RunMatrix(threads, /*inject=*/false), threads);
  }
}

TEST(ServiceConcurrency, FaultStormThreadMatrixMatchesSerialReplay) {
  const MatrixRun serial = RunMatrix(1, /*inject=*/true);
  for (const int threads : {2, 4, 8}) {
    ExpectIdentical(serial, RunMatrix(threads, /*inject=*/true), threads);
  }
}

TEST(ServiceConcurrency, RepeatedRunsAreBitIdentical) {
  const MatrixRun first = RunMatrix(4, /*inject=*/false);
  ExpectIdentical(first, RunMatrix(4, /*inject=*/false), 4);
}

// Completed jobs are not just internally consistent: their key digest must
// equal the digest of std::sort over the job's generated input.
TEST(ServiceConcurrency, CompletedJobsMatchGoldenSort) {
  service::ServiceOptions options;
  options.shards = 3;
  options.threads = 4;
  options.seed = kSeed;
  options.calibration_trials = kCalibrationTrials;
  options.shared_calibration = SharedCache();
  service::SortService sort_service(options);
  for (const service::TenantSpec& tenant : MatrixTenants()) {
    ASSERT_TRUE(sort_service.RegisterTenant(tenant).ok());
  }
  sort_service.Run(MatrixTrace());
  size_t completed = 0;
  for (const service::JobRecord& record : sort_service.jobs()) {
    if (record.state != service::JobState::kCompleted) continue;
    ++completed;
    std::vector<uint32_t> golden = core::MakeKeys(
        record.request.workload, record.request.n, record.request.seed);
    std::sort(golden.begin(), golden.end());
    const uint64_t golden_digest =
        Fnv1a64(golden.data(), golden.size() * sizeof(uint32_t));
    EXPECT_EQ(record.keys_digest, golden_digest)
        << "ticket " << record.ticket << " (" << record.request.Name()
        << ") is not the sorted input";
    EXPECT_TRUE(record.verified);
    EXPECT_TRUE(record.status.ok());
  }
  EXPECT_GT(completed, 0u);
}

}  // namespace
}  // namespace approxmem
