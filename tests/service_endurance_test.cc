// End-to-end tests of the endurance subsystem inside the sort service:
// the aging determinism contract (retirement timelines, SLO ledgers, and
// every job digest bit-identical at threads 1/2/4/8), graceful service
// degradation (knob tightening, honest exhaustion sheds), and the
// engine-level invariance of wear-escalated errors across sort_threads.
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "approx/endurance.h"
#include "common/hash.h"
#include "core/engine.h"
#include "core/workload.h"
#include "mlc/calibration.h"
#include "service/sort_service.h"

namespace approxmem {
namespace {

constexpr uint64_t kSeed = 11;
constexpr uint64_t kCalibrationTrials = 5000;
constexpr double kBankedKnob = 0.045;

std::shared_ptr<mlc::CalibrationCache> SharedCache() {
  static std::shared_ptr<mlc::CalibrationCache> cache =
      std::make_shared<mlc::CalibrationCache>(
          mlc::MlcConfig{}, kCalibrationTrials, kSeed ^ 0xca11b7a7e5eedULL);
  return cache;
}

std::vector<service::TenantSpec> AgingTenants() {
  std::vector<service::TenantSpec> tenants(2);
  tenants[0].name = "alice";
  tenants[0].backend = "mlc-pcm";
  tenants[1].name = "bob";
  tenants[1].backend = "mlc-pcm-banked";
  tenants[1].knob = kBankedKnob;
  return tenants;
}

service::RequestTrace AgingTrace(int bursts) {
  service::TraceGenOptions gen;
  gen.seed = kSeed;
  gen.tenants = {"alice", "bob"};
  gen.bursts = bursts;
  gen.max_burst_jobs = 5;
  gen.min_n = 32;
  gen.max_n = 128;
  return service::MakeRandomTrace(gen);
}

/// Service configuration whose banks wear out partway through the trace:
/// small substrate (2 shards x 2 banks), accelerated aging, and a budget
/// sized so the first retirements land mid-trace with jobs still
/// completing afterwards. All values are deterministic tuning, pinned by
/// the digest assertions below.
service::ServiceOptions AgingOptions(int threads, double bank_budget_pv) {
  service::ServiceOptions options;
  options.shards = 2;
  options.threads = threads;
  options.seed = kSeed;
  options.calibration_trials = kCalibrationTrials;
  options.shared_calibration = SharedCache();
  options.admission.queue_capacity = 256;
  options.wear.banks = 2;
  options.endurance.enabled = true;
  options.endurance.age_multiplier = 10.0;
  options.endurance.bank_budget_pv = bank_budget_pv;
  return options;
}

constexpr double kMidlifeBudgetPv = 2.0e6;

/// Everything about one job that must replay identically across thread
/// counts — the concurrency suite's summary plus the endurance fields.
struct JobSummary {
  service::JobState state = service::JobState::kQueued;
  int shard = -1;
  int batch = -1;
  bool verified = false;
  uint64_t keys_digest = 0;
  uint64_t wear_epoch = 0;
  double effective_knob = 0.0;

  bool operator==(const JobSummary& other) const {
    return state == other.state && shard == other.shard &&
           batch == other.batch && verified == other.verified &&
           keys_digest == other.keys_digest &&
           wear_epoch == other.wear_epoch &&
           effective_knob == other.effective_knob;
  }
};

struct AgingRun {
  std::vector<JobSummary> jobs;
  std::map<std::string, uint64_t> ledger_digests;
  service::ServiceStats stats;
  uint64_t timeline_digest = 0;
  /// (epoch, completed, failed, shed) rows — the SLO ledger minus its
  /// wall-clock latency samples.
  std::vector<std::vector<uint64_t>> slo_rows;
};

AgingRun RunAging(int threads, double bank_budget_pv = kMidlifeBudgetPv,
                  int bursts = 24) {
  service::SortService sort_service(AgingOptions(threads, bank_budget_pv));
  for (const service::TenantSpec& tenant : AgingTenants()) {
    EXPECT_TRUE(sort_service.RegisterTenant(tenant).ok());
  }
  AgingRun run;
  run.stats = sort_service.Run(AgingTrace(bursts));
  for (const service::JobRecord& record : sort_service.jobs()) {
    JobSummary summary;
    summary.state = record.state;
    summary.shard = record.shard;
    summary.batch = record.batch;
    summary.verified = record.verified;
    summary.keys_digest = record.keys_digest;
    summary.wear_epoch = record.wear_epoch;
    summary.effective_knob = record.effective_knob;
    run.jobs.push_back(summary);
  }
  for (const std::string& name : sort_service.tenant_names()) {
    run.ledger_digests[name] = sort_service.tenant_ledger(name).Digest();
  }
  run.timeline_digest = sort_service.RetirementTimelineDigest();
  for (const auto& [epoch, stats] : sort_service.slo().epochs()) {
    run.slo_rows.push_back(
        {epoch, stats.jobs_completed, stats.jobs_failed, stats.jobs_shed});
  }
  return run;
}

TEST(ServiceEndurance, AgingThreadMatrixMatchesSerialReplay) {
  const AgingRun serial = RunAging(1);
  EXPECT_GE(serial.stats.banks_retired, 1u);
  for (const int threads : {2, 4, 8}) {
    const AgingRun run = RunAging(threads);
    ASSERT_EQ(serial.jobs.size(), run.jobs.size());
    for (size_t i = 0; i < serial.jobs.size(); ++i) {
      EXPECT_TRUE(serial.jobs[i] == run.jobs[i])
          << "job " << i << " diverged at threads=" << threads;
    }
    EXPECT_EQ(serial.ledger_digests, run.ledger_digests);
    EXPECT_EQ(serial.timeline_digest, run.timeline_digest)
        << "retirement timeline diverged at threads=" << threads;
    EXPECT_EQ(serial.slo_rows, run.slo_rows)
        << "SLO epoch rows diverged at threads=" << threads;
    EXPECT_EQ(serial.stats.banks_retired, run.stats.banks_retired);
    EXPECT_EQ(serial.stats.jobs_completed, run.stats.jobs_completed);
    EXPECT_EQ(serial.stats.jobs_shed, run.stats.jobs_shed);
  }
}

TEST(ServiceEndurance, RetirementKeepsTheServiceServingVerifiedJobs) {
  service::SortService sort_service(AgingOptions(4, kMidlifeBudgetPv));
  for (const service::TenantSpec& tenant : AgingTenants()) {
    ASSERT_TRUE(sort_service.RegisterTenant(tenant).ok());
  }
  const service::ServiceStats stats = sort_service.Run(AgingTrace(24));
  ASSERT_GE(stats.banks_retired, 1u);
  EXPECT_GT(stats.jobs_completed, 0u);

  size_t completed_on_aged_substrate = 0;
  for (const service::JobRecord& record : sort_service.jobs()) {
    if (record.state != service::JobState::kCompleted) continue;
    // Completed means verified and exactly the golden sorted input, even
    // on a substrate that already lost banks.
    EXPECT_TRUE(record.verified);
    EXPECT_TRUE(record.status.ok());
    std::vector<uint32_t> golden = core::MakeKeys(
        record.request.workload, record.request.n, record.request.seed);
    std::sort(golden.begin(), golden.end());
    EXPECT_EQ(record.keys_digest,
              Fnv1a64(golden.data(), golden.size() * sizeof(uint32_t)))
        << "ticket " << record.ticket;
    if (record.wear_epoch >= 1) ++completed_on_aged_substrate;
  }
  EXPECT_GT(completed_on_aged_substrate, 0u)
      << "no job completed after a retirement: the aging tuning lost its "
         "graceful-degradation window";

  // The SLO ledger binned every terminal job, across at least two epochs.
  uint64_t slo_jobs = 0;
  for (const auto& [epoch, epoch_stats] : sort_service.slo().epochs()) {
    slo_jobs += epoch_stats.jobs_completed + epoch_stats.jobs_failed +
                epoch_stats.jobs_shed;
  }
  EXPECT_EQ(slo_jobs, stats.jobs_completed + stats.jobs_failed +
                          stats.jobs_shed);
  EXPECT_GE(sort_service.slo().epochs().size(), 2u);

  // The retirement timeline is exposed per shard and folds into the
  // service digest.
  uint64_t events = 0;
  for (int shard = 0; shard < sort_service.options().shards; ++shard) {
    const approx::EnduranceLedger* ledger = sort_service.shard_endurance(shard);
    ASSERT_NE(ledger, nullptr);
    events += ledger->retirements().size();
  }
  EXPECT_EQ(events, stats.banks_retired);
  EXPECT_NE(sort_service.RetirementTimelineDigest(), 0u);
}

TEST(ServiceEndurance, AgingTightensTheKnobTowardPrecise) {
  service::SortService sort_service(AgingOptions(4, kMidlifeBudgetPv));
  for (const service::TenantSpec& tenant : AgingTenants()) {
    ASSERT_TRUE(sort_service.RegisterTenant(tenant).ok());
  }
  sort_service.Run(AgingTrace(24));

  // Banks cross escalation steps (50/75/90% of budget) before they retire,
  // so with at least one retirement the trace must contain bob jobs that
  // ran with the knob tightened below the registered 0.045 — and none that
  // ran looser.
  ASSERT_GE(sort_service.stats().banks_retired, 1u);
  size_t tightened = 0;
  for (const service::JobRecord& record : sort_service.jobs()) {
    if (record.state != service::JobState::kCompleted) continue;
    if (record.request.tenant != "bob") continue;
    EXPECT_LE(record.effective_knob, kBankedKnob + 1e-12);
    EXPECT_GT(record.effective_knob, 0.0);
    if (record.effective_knob < kBankedKnob - 1e-12) ++tightened;
  }
  EXPECT_GT(tightened, 0u)
      << "no completed bob job ran with an aged-tightened knob";
}

TEST(ServiceEndurance, ExhaustedSubstrateShedsWithAnHonestStatus) {
  // A budget this small retires every bank almost immediately; the trace
  // keeps arriving, so the tail of it must be shed — honestly, with
  // kUnavailable — rather than silently dropped or falsely failed.
  service::SortService sort_service(AgingOptions(4, /*bank_budget_pv=*/1.0));
  for (const service::TenantSpec& tenant : AgingTenants()) {
    ASSERT_TRUE(sort_service.RegisterTenant(tenant).ok());
  }
  const service::ServiceStats stats = sort_service.Run(AgingTrace(8));
  EXPECT_GT(stats.jobs_shed_exhausted, 0u);
  EXPECT_EQ(stats.banks_retired, 4u);  // 2 shards x 2 banks: all dead.
  for (int shard = 0; shard < sort_service.options().shards; ++shard) {
    EXPECT_EQ(sort_service.shard_endurance(shard)->live_banks(), 0);
  }

  size_t exhausted_sheds = 0;
  for (const service::JobRecord& record : sort_service.jobs()) {
    // Every submitted job is terminal — nothing stuck in the backlog.
    EXPECT_TRUE(record.state == service::JobState::kCompleted ||
                record.state == service::JobState::kFailed ||
                record.state == service::JobState::kShed)
        << "ticket " << record.ticket << " is not terminal";
    if (record.state == service::JobState::kShed &&
        record.status.code() == StatusCode::kUnavailable &&
        record.status.message().find("exhausted") != std::string::npos) {
      ++exhausted_sheds;
    }
  }
  EXPECT_EQ(exhausted_sheds, stats.jobs_shed_exhausted);
}

// Wear-escalated errors must not depend on intra-sort parallelism: an
// engine sorting through a WearErrorHook over an aged ledger produces
// bit-identical outputs, ledgers, and injected-error counts at any
// sort_threads setting (a fault hook forces the striped passes serial).
TEST(ServiceEndurance, WearErrorEscalationIsDeterministicAcrossSortThreads) {
  approx::EnduranceOptions endurance;
  endurance.enabled = true;
  endurance.banks = 4;
  endurance.bank_budget_pv = 1000.0;
  approx::EnduranceLedger ledger(endurance);
  ledger.ChargeBank(0, 800.0);  // 80%: level 2, 1% extra word errors on
                                // the lane every engine allocation uses.
  ASSERT_EQ(ledger.MaxLiveEscalationLevel(), 2);

  struct RunDigest {
    uint64_t keys = 0;
    uint64_t ids = 0;
    uint64_t injected = 0;
    double write_reduction = 0.0;
    bool operator==(const RunDigest& other) const {
      return keys == other.keys && ids == other.ids &&
             injected == other.injected &&
             write_reduction == other.write_reduction;
    }
  };
  const std::vector<uint32_t> keys =
      core::MakeKeys(core::WorkloadKind::kUniform, 4096, kSeed);

  const auto run = [&](int sort_threads) {
    approx::WearErrorHook hook(&ledger, nullptr);
    hook.BeginJob(/*ticket=*/5);
    core::EngineOptions options;
    options.seed = kSeed;
    options.calibration_trials = kCalibrationTrials;
    options.shared_calibration = SharedCache();
    options.fault_hook = &hook;
    options.sort_threads = sort_threads;
    core::ApproxSortEngine engine(options);
    std::vector<uint32_t> final_keys;
    std::vector<uint32_t> final_ids;
    auto outcome = engine.SortApproxRefine(
        keys, sort::AlgorithmId{sort::SortKind::kLsdRadix, 3}, 0.055,
        &final_keys, &final_ids);
    EXPECT_TRUE(outcome.ok()) << outcome.status().ToString();
    RunDigest digest;
    digest.keys = Fnv1a64(final_keys.data(),
                          final_keys.size() * sizeof(uint32_t));
    digest.ids = Fnv1a64(final_ids.data(),
                         final_ids.size() * sizeof(uint32_t));
    digest.injected = hook.injected_errors();
    digest.write_reduction = outcome->write_reduction;
    return digest;
  };

  const RunDigest serial = run(1);
  EXPECT_GT(serial.injected, 0u)
      << "the aged bank injected nothing: escalation never engaged";
  for (const int sort_threads : {2, 4, 8}) {
    EXPECT_TRUE(serial == run(sort_threads))
        << "wear-error run diverged at sort_threads=" << sort_threads;
  }
}

}  // namespace
}  // namespace approxmem
