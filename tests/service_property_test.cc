// Property suite for the sort service's admission control and trace
// tooling: random bursty traces with mixed knobs and tight queues must
// uphold the service invariants (bounded backlog, every job terminal with
// an honest status, ledgers that add up), a mid-flight quarantine storm
// must degrade gracefully, and a failing trace must shrink to a minimal
// repro (see TESTING.md for the replay workflow).
#include <cmath>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/job_plan.h"
#include "mlc/calibration.h"
#include "service/sort_service.h"
#include "testing/fault_injection.h"

namespace approxmem {
namespace {

constexpr uint64_t kCalibrationTrials = 5000;

std::shared_ptr<mlc::CalibrationCache> SharedCache() {
  static std::shared_ptr<mlc::CalibrationCache> cache =
      std::make_shared<mlc::CalibrationCache>(mlc::MlcConfig{},
                                              kCalibrationTrials,
                                              42 ^ 0xca11b7a7e5eedULL);
  return cache;
}

struct PropertyConfig {
  int shards = 2;
  size_t queue_capacity = 8;
  int shard_batch_quota = 2;
  int max_deferrals = 2;
  bool storm = false;
};

service::ServiceOptions MakeOptions(const PropertyConfig& config,
                                    uint64_t seed) {
  service::ServiceOptions options;
  options.shards = config.shards;
  options.threads = 2;
  options.seed = seed;
  options.calibration_trials = kCalibrationTrials;
  options.shared_calibration = SharedCache();
  options.admission.queue_capacity = config.queue_capacity;
  options.admission.shard_batch_quota = config.shard_batch_quota;
  options.admission.max_deferrals = config.max_deferrals;
  if (config.storm) {
    // A hot region at the bottom of bank lane 0: canary probes placed
    // there observe a ~90% word error rate, far beyond any calibrated
    // model, so the health monitor quarantines mid-flight and the wear
    // policy must steer subsequent placements around it.
    options.fault_hook_factory =
        [seed](int shard) -> std::unique_ptr<approx::MemoryFaultHook> {
      testing::FaultPlan plan;
      plan.seed = seed ^ (0xbadULL + static_cast<uint64_t>(shard));
      testing::ErrorRateOverride hot;
      hot.region = testing::AddressRegion{0, uint64_t{64} << 20};
      hot.probability = 0.9;
      plan.rate_overrides.push_back(hot);
      return std::make_unique<testing::FaultInjector>(plan);
    };
  }
  return options;
}

std::vector<service::TenantSpec> PropertyTenants() {
  // Mixed knobs on one backend plus a second technology: admission and
  // ledger invariants must hold across heterogeneous per-tenant profiles.
  std::vector<service::TenantSpec> tenants(3);
  tenants[0].name = "hot";
  tenants[0].backend = "mlc-pcm";
  tenants[0].knob = 0.075;
  tenants[1].name = "cold";
  tenants[1].backend = "mlc-pcm";
  tenants[1].knob = 0.035;
  tenants[2].name = "spin";
  tenants[2].backend = "spintronic";
  return tenants;
}

service::TraceGenOptions PropertyGen(uint64_t seed,
                                     double extsort_fraction = 0.0) {
  service::TraceGenOptions gen;
  gen.seed = seed;
  gen.tenants = {"hot", "cold", "spin"};
  gen.bursts = 3;
  gen.max_burst_jobs = 12;  // Bursts can overflow the 8-slot queue.
  gen.min_n = 16;
  gen.max_n = 96;
  gen.extsort_fraction = extsort_fraction;
  return gen;
}

/// Runs `trace` through a fresh service and returns the first violated
/// invariant as a message, or "" when all hold. Pure function of (config,
/// seed, trace) — exactly what ShrinkTrace needs.
std::string CheckInvariants(const PropertyConfig& config, uint64_t seed,
                            const service::RequestTrace& trace) {
  service::SortService sort_service(MakeOptions(config, seed));
  for (const service::TenantSpec& tenant : PropertyTenants()) {
    const Status status = sort_service.RegisterTenant(tenant);
    if (!status.ok()) return "RegisterTenant: " + status.ToString();
  }
  const service::ServiceStats stats = sort_service.Run(trace);

  if (stats.backlog_high_water > config.queue_capacity) {
    return "backlog high water " + std::to_string(stats.backlog_high_water) +
           " exceeds queue capacity " +
           std::to_string(config.queue_capacity);
  }
  if (stats.jobs_submitted != trace.TotalJobs()) {
    return "submitted " + std::to_string(stats.jobs_submitted) + " of " +
           std::to_string(trace.TotalJobs()) + " trace jobs";
  }
  if (stats.jobs_completed + stats.jobs_failed + stats.jobs_shed !=
      stats.jobs_submitted) {
    return "terminal states do not add up to submissions";
  }
  for (const service::JobRecord& record : sort_service.jobs()) {
    const std::string label =
        "ticket " + std::to_string(record.ticket) + " (" +
        record.request.Name() + "): ";
    switch (record.state) {
      case service::JobState::kQueued:
      case service::JobState::kDeferred:
        return label + "not terminal after RunUntilIdle";
      case service::JobState::kCompleted:
        if (!record.verified || !record.status.ok()) {
          return label + "completed but unverified or non-OK status";
        }
        if (record.keys_digest == 0 || record.shard < 0 ||
            record.batch < 0) {
          return label + "completed without digest or placement";
        }
        if (record.service_us <= 0.0 || record.virtual_latency_us <= 0.0) {
          return label + "completed without a virtual-time latency";
        }
        if (record.request.job_class == core::JobClass::kExtSort &&
            record.ids_digest == 0) {
          return label + "extsort completed without a rowid digest";
        }
        if (record.request.job_class == core::JobClass::kExtSort &&
            record.initial_runs == 0) {
          return label + "extsort completed without initial runs";
        }
        break;
      case service::JobState::kFailed:
        if (record.status.ok()) return label + "failed with an OK status";
        break;
      case service::JobState::kShed:
        if (record.status.ok()) return label + "shed with an OK status";
        if (record.service_us != 0.0) {
          return label + "shed but charged virtual service time";
        }
        if (record.deferrals != 0 &&
            record.deferrals <= config.max_deferrals) {
          return label + "shed before exhausting its deferral budget";
        }
        break;
    }
  }
  uint64_t ledger_total = 0;
  for (const std::string& name : sort_service.tenant_names()) {
    const service::TenantLedger ledger = sort_service.tenant_ledger(name);
    ledger_total +=
        ledger.jobs_completed + ledger.jobs_failed + ledger.jobs_shed;
    // Quota bookkeeping: with endurance off there is only wear epoch 0, so
    // the epoch charge must equal the tenant ledger's write cost (both sum
    // the same per-job costs; addition order may differ, hence the
    // tolerance).
    const double charged = sort_service.tenant_epoch_cost(name, 0);
    const double expected = ledger.cost.write_cost;
    if (std::abs(charged - expected) >
        1e-6 * std::max(1.0, std::abs(expected))) {
      return "tenant " + name + " epoch-0 charge " + std::to_string(charged) +
             " != ledger write cost " + std::to_string(expected);
    }
  }
  if (ledger_total != stats.jobs_submitted) {
    return "tenant ledgers cover " + std::to_string(ledger_total) + " of " +
           std::to_string(stats.jobs_submitted) + " jobs";
  }
  for (int s = 0; s < config.shards; ++s) {
    if (sort_service.shard_wear(s).quarantine_events() !=
        sort_service.shard_health(s).regions_quarantined) {
      return "shard " + std::to_string(s) +
             ": wear policy saw a different quarantine count than the "
             "health monitor";
    }
  }
  return std::string();
}

// On an invariant violation, shrink to a minimal failing trace and print
// the replay recipe; the assertion message is the whole repro.
void ExpectInvariantsHold(const PropertyConfig& config, uint64_t seed,
                          double extsort_fraction = 0.0) {
  const service::RequestTrace trace =
      service::MakeRandomTrace(PropertyGen(seed, extsort_fraction));
  const std::string failure = CheckInvariants(config, seed, trace);
  if (failure.empty()) return;
  const service::RequestTrace minimal = service::ShrinkTrace(
      trace, [&](const service::RequestTrace& variant) {
        return !CheckInvariants(config, seed, variant).empty();
      });
  FAIL() << "invariant violated at gen seed " << seed << ": " << failure
         << "\nminimal failing trace (" << minimal.TotalJobs()
         << " jobs):\n"
         << service::TraceToString(minimal);
}

TEST(ServiceProperty, AdmissionInvariantsOnRandomBurstyTraces) {
  for (uint64_t seed = 1; seed <= 6; ++seed) {
    ExpectInvariantsHold(PropertyConfig{}, seed);
  }
}

TEST(ServiceProperty, InvariantsHoldThroughMidFlightQuarantine) {
  PropertyConfig config;
  config.storm = true;
  for (uint64_t seed = 1; seed <= 3; ++seed) {
    ExpectInvariantsHold(config, seed);
  }
}

TEST(ServiceProperty, QuarantineStormActuallyQuarantines) {
  PropertyConfig config;
  config.storm = true;
  service::SortService sort_service(MakeOptions(config, 1));
  for (const service::TenantSpec& tenant : PropertyTenants()) {
    ASSERT_TRUE(sort_service.RegisterTenant(tenant).ok());
  }
  sort_service.Run(service::MakeRandomTrace(PropertyGen(1)));
  EXPECT_GT(sort_service.stats().quarantined_regions, 0u)
      << "the 90% hot region was never quarantined — the storm is not "
         "reaching the canary probes";
}

TEST(ServiceProperty, OverflowingSubmissionsAreShedAtTheGate) {
  PropertyConfig config;
  config.queue_capacity = 4;
  service::SortService sort_service(MakeOptions(config, 3));
  for (const service::TenantSpec& tenant : PropertyTenants()) {
    ASSERT_TRUE(sort_service.RegisterTenant(tenant).ok());
  }
  service::SortRequest request;
  request.tenant = "hot";
  request.n = 32;
  for (uint64_t i = 0; i < 12; ++i) {
    request.seed = i + 1;
    ASSERT_TRUE(sort_service.Submit(request).ok());
  }
  EXPECT_EQ(sort_service.stats().jobs_shed, 8u);
  EXPECT_EQ(sort_service.stats().backlog_high_water, 4u);
  sort_service.RunUntilIdle();
  EXPECT_EQ(sort_service.stats().jobs_completed, 4u);
  for (const service::JobRecord& record : sort_service.jobs()) {
    if (record.state == service::JobState::kShed) {
      EXPECT_FALSE(record.status.ok());
    }
  }
}

TEST(ServiceProperty, StarvedJobsShedHonestlyAfterDeferralBudget) {
  PropertyConfig config;
  config.shards = 1;
  config.shard_batch_quota = 1;
  config.queue_capacity = 16;
  config.max_deferrals = 2;
  service::SortService sort_service(MakeOptions(config, 5));
  for (const service::TenantSpec& tenant : PropertyTenants()) {
    ASSERT_TRUE(sort_service.RegisterTenant(tenant).ok());
  }
  service::SortRequest request;
  request.tenant = "cold";
  request.n = 24;
  for (uint64_t i = 0; i < 10; ++i) {
    request.seed = i + 1;
    ASSERT_TRUE(sort_service.Submit(request).ok());
  }
  sort_service.RunUntilIdle();
  const service::ServiceStats& stats = sort_service.stats();
  EXPECT_EQ(stats.jobs_completed + stats.jobs_failed + stats.jobs_shed,
            10u);
  EXPECT_GT(stats.jobs_shed, 0u) << "a 1-job-per-batch shard draining a "
                                    "10-job queue must exhaust some "
                                    "deferral budgets";
  EXPECT_GT(stats.deferral_events, 0u);
  for (const service::JobRecord& record : sort_service.jobs()) {
    if (record.state == service::JobState::kShed) {
      EXPECT_GT(record.deferrals, config.max_deferrals);
      EXPECT_FALSE(record.status.ok());
    }
  }
}

TEST(ServiceProperty, MixedClassInvariantsOnRandomTraces) {
  // The tentpole invariants: in-memory and extsort jobs share one
  // admission queue, and backlog / terminal-state / ledger / quota
  // bookkeeping must hold across both classes.
  for (uint64_t seed = 1; seed <= 4; ++seed) {
    ExpectInvariantsHold(PropertyConfig{}, seed, /*extsort_fraction=*/0.4);
  }
}

TEST(ServiceProperty, MixedTraceActuallyMixesClasses) {
  const service::RequestTrace trace =
      service::MakeRandomTrace(PropertyGen(2, /*extsort_fraction=*/0.4));
  size_t in_memory = 0;
  size_t extsort_jobs = 0;
  for (const auto& burst : trace.bursts) {
    for (const service::SortRequest& request : burst) {
      (request.job_class == core::JobClass::kExtSort ? extsort_jobs
                                                     : in_memory)++;
    }
  }
  EXPECT_GT(in_memory, 0u);
  EXPECT_GT(extsort_jobs, 0u);
}

TEST(ServiceProperty, QuotaExhaustionShedsHonestly) {
  // A tenant whose Eq. 2 write-cost quota is far below one job's cost:
  // the first batch runs (charges land at merge-on-report), every later
  // admission sheds with an honest quota status.
  PropertyConfig config;
  service::SortService sort_service(MakeOptions(config, 7));
  std::vector<service::TenantSpec> tenants = PropertyTenants();
  tenants[0].epoch_cost_quota = 1.0;  // Simulated ns; one job costs more.
  for (const service::TenantSpec& tenant : tenants) {
    ASSERT_TRUE(sort_service.RegisterTenant(tenant).ok());
  }
  service::SortRequest request;
  request.tenant = "hot";
  request.n = 64;
  request.seed = 1;
  ASSERT_TRUE(sort_service.Submit(request).ok());
  sort_service.RunUntilIdle();
  ASSERT_EQ(sort_service.stats().jobs_completed, 1u);
  EXPECT_GT(sort_service.tenant_epoch_cost("hot", 0), 1.0);

  for (uint64_t i = 0; i < 3; ++i) {
    request.seed = i + 2;
    request.job_class = i == 0 ? core::JobClass::kExtSort
                               : core::JobClass::kInMemory;
    ASSERT_TRUE(sort_service.Submit(request).ok());
  }
  sort_service.RunUntilIdle();
  const service::ServiceStats& stats = sort_service.stats();
  EXPECT_EQ(stats.jobs_completed, 1u);
  EXPECT_EQ(stats.jobs_shed, 3u);
  EXPECT_EQ(stats.jobs_shed_quota, 3u);
  for (const service::JobRecord& record : sort_service.jobs()) {
    if (record.state != service::JobState::kShed) continue;
    EXPECT_FALSE(record.status.ok());
    EXPECT_NE(record.status.message().find("quota"), std::string::npos)
        << record.status.ToString();
  }
  // Other tenants are unaffected by hot's quota.
  request.tenant = "cold";
  request.job_class = core::JobClass::kInMemory;
  request.seed = 99;
  ASSERT_TRUE(sort_service.Submit(request).ok());
  sort_service.RunUntilIdle();
  EXPECT_EQ(sort_service.stats().jobs_completed, 2u);
}

TEST(ServiceProperty, ExtsortLeaseContentionDefersNotDrops) {
  // A tenant budget that holds exactly one lease: concurrent extsort jobs
  // serialize through deferrals and all still complete.
  PropertyConfig config;
  config.shards = 4;
  service::SortService sort_service(MakeOptions(config, 9));
  std::vector<service::TenantSpec> tenants = PropertyTenants();
  tenants[0].extsort_budget_bytes = tenants[0].extsort.lease_bytes;
  for (const service::TenantSpec& tenant : tenants) {
    ASSERT_TRUE(sort_service.RegisterTenant(tenant).ok());
  }
  service::SortRequest request;
  request.tenant = "hot";
  request.job_class = core::JobClass::kExtSort;
  request.n = 48;
  for (uint64_t i = 0; i < 3; ++i) {
    request.seed = i + 1;
    ASSERT_TRUE(sort_service.Submit(request).ok());
  }
  sort_service.RunUntilIdle();
  const service::ServiceStats& stats = sort_service.stats();
  EXPECT_EQ(stats.jobs_completed, 3u);
  EXPECT_EQ(stats.jobs_shed, 0u);
  EXPECT_GT(stats.deferral_events, 0u)
      << "three one-lease jobs should not all fit one batch";
  // At most one extsort job per batch under a single lease.
  std::map<int, int> per_batch;
  for (const service::JobRecord& record : sort_service.jobs()) {
    EXPECT_LE(++per_batch[record.batch], 1)
        << "two extsort jobs shared batch " << record.batch
        << " despite a one-lease budget";
  }
}

// A failure that only reproduces with an extsort job must shrink to a
// single extsort job — the demote-to-in-memory shrink family keeps the
// class only while it matters.
TEST(ServiceProperty, ShrinkTraceKeepsExtsortOnlyWhileItMatters) {
  service::TraceGenOptions gen = PropertyGen(13, /*extsort_fraction=*/0.5);
  gen.max_n = 512;
  const service::RequestTrace trace = service::MakeRandomTrace(gen);
  const auto predicate = [](const service::RequestTrace& variant) {
    for (const auto& burst : variant.bursts) {
      for (const service::SortRequest& request : burst) {
        if (request.job_class == core::JobClass::kExtSort &&
            request.n >= 64) {
          return true;
        }
      }
    }
    return false;
  };
  ASSERT_TRUE(predicate(trace));
  const service::RequestTrace minimal =
      service::ShrinkTrace(trace, predicate, /*max_steps=*/2048);
  ASSERT_EQ(minimal.TotalJobs(), 1u) << service::TraceToString(minimal);
  const service::SortRequest& survivor = minimal.bursts[0][0];
  EXPECT_EQ(survivor.job_class, core::JobClass::kExtSort);
  EXPECT_GE(survivor.n, 64u);
  EXPECT_LT(survivor.n, 128u);
}

// The shrinker itself: an artificial predicate ("some job has n >= 64")
// must reduce a many-job trace to a single job whose n cannot halve
// without the predicate flipping.
TEST(ServiceProperty, ShrinkTraceFindsMinimalFailingTrace) {
  service::TraceGenOptions gen = PropertyGen(11);
  gen.max_n = 512;
  const service::RequestTrace trace = service::MakeRandomTrace(gen);
  const auto predicate = [](const service::RequestTrace& variant) {
    for (const auto& burst : variant.bursts) {
      for (const service::SortRequest& request : burst) {
        if (request.n >= 64) return true;
      }
    }
    return false;
  };
  ASSERT_TRUE(predicate(trace));
  const service::RequestTrace minimal =
      service::ShrinkTrace(trace, predicate, /*max_steps=*/512);
  EXPECT_EQ(minimal.TotalJobs(), 1u) << service::TraceToString(minimal);
  const service::SortRequest& survivor = minimal.bursts[0][0];
  EXPECT_GE(survivor.n, 64u);
  EXPECT_LT(survivor.n, 128u) << "halving once more should have flipped "
                                 "the predicate";
}

}  // namespace
}  // namespace approxmem
