#include "service/sort_service.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <utility>

#include "common/check.h"
#include "common/hash.h"

namespace approxmem::service {
namespace {

double NowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

uint64_t DigestDouble(uint64_t h, double value) {
  return Fnv1a64(&value, sizeof(value), h);
}

/// Admission quota of a shard that is cooling down after its previous job
/// climbed the resilience ladder or finished unverified.
constexpr int kCooldownAdmit = 1;

/// Knob multiplier applied per escalation level of the most-aged live bank
/// on a job's shard — graceful degradation toward precise for tenants
/// placed on aged substrate.
constexpr double kAgingKnobFactor = 0.5;

}  // namespace

uint64_t ShardEngineSeed(uint64_t service_seed, int shard,
                         const TenantSpec& tenant) {
  uint64_t h = Fnv1a64(tenant.name.data(), tenant.name.size());
  h = Fnv1a64Word(h, tenant.seed);
  h = Fnv1a64Word(h, static_cast<uint64_t>(shard));
  return service_seed ^ h;
}

std::string_view JobStateName(JobState state) {
  switch (state) {
    case JobState::kQueued:
      return "QUEUED";
    case JobState::kDeferred:
      return "DEFERRED";
    case JobState::kCompleted:
      return "COMPLETED";
    case JobState::kFailed:
      return "FAILED";
    case JobState::kShed:
      return "SHED";
  }
  return "UNKNOWN";
}

uint64_t TenantLedger::Digest() const {
  uint64_t h = Fnv1a64(nullptr, 0);
  h = Fnv1a64Word(h, jobs_completed);
  h = Fnv1a64Word(h, jobs_failed);
  h = Fnv1a64Word(h, jobs_shed);
  h = Fnv1a64Word(h, deferral_events);
  h = Fnv1a64Word(h, cost.word_reads);
  h = Fnv1a64Word(h, cost.word_writes);
  h = Fnv1a64Word(h, cost.corrupted_writes);
  h = Fnv1a64Word(h, cost.sequential_writes);
  h = Fnv1a64Word(h, cost.degraded_regions);
  h = DigestDouble(h, cost.write_cost);
  h = DigestDouble(h, cost.read_cost);
  h = DigestDouble(h, cost.pv_iterations);
  h = DigestDouble(h, baseline_write_cost);
  return h;
}

/// One shard substrate: the engines, wear ledger, and fault hook a single
/// shard owns exclusively. Only the shard's serial run loop (and the
/// driver thread, between batches) ever touches it.
struct SortService::Shard {
  int index = 0;
  /// Device-lifetime ledger of the shard substrate (null when endurance is
  /// off). Shared, not owned, by `wear` and `wear_hook`.
  std::unique_ptr<approx::EnduranceLedger> endurance;
  std::unique_ptr<WearPlacement> wear;
  std::unique_ptr<approx::MemoryFaultHook> fault_hook;
  /// Realizes the ledger's escalated error rates; chains fault_hook so
  /// storms and aging compose. Engines see this hook when endurance is on.
  std::unique_ptr<approx::WearErrorHook> wear_hook;
  std::map<std::string, std::unique_ptr<core::ApproxSortEngine>> engines;
  /// Tickets assigned for the current batch, in execution order.
  std::vector<uint64_t> run_list;
  /// Set when a job in the shard's previous batch climbed the resilience
  /// ladder or finished unverified; halves the shard's next admissions.
  bool cooling = false;
};

SortService::SortService(const ServiceOptions& options)
    : options_(options),
      calibration_(options.shared_calibration
                       ? options.shared_calibration
                       : std::make_shared<mlc::CalibrationCache>(
                             mlc::MlcConfig{}, options.calibration_trials,
                             options.seed ^ 0xca11b7a7e5eedULL)),
      pool_(std::make_unique<ThreadPool>(options.threads)) {
  APPROXMEM_CHECK(options_.shards > 0);
  APPROXMEM_CHECK(options_.admission.queue_capacity > 0);
  APPROXMEM_CHECK(options_.admission.shard_batch_quota > 0);
  shards_.reserve(static_cast<size_t>(options_.shards));
  for (int s = 0; s < options_.shards; ++s) {
    auto shard = std::make_unique<Shard>();
    shard->index = s;
    if (options_.endurance.enabled) {
      // Endurance takes the placement charges as its wear feed; geometry
      // comes from the placement policy so ledger banks and placement
      // lanes agree.
      approx::EnduranceOptions endurance = options_.endurance;
      endurance.banks = options_.wear.banks;
      endurance.bank_lane_bytes = WearPlacement::kBankLaneBytes;
      shard->endurance = std::make_unique<approx::EnduranceLedger>(endurance);
    }
    shard->wear = std::make_unique<WearPlacement>(options_.wear,
                                                  shard->endurance.get());
    if (options_.fault_hook_factory) {
      shard->fault_hook = options_.fault_hook_factory(s);
    }
    if (shard->endurance) {
      shard->wear_hook = std::make_unique<approx::WearErrorHook>(
          shard->endurance.get(), shard->fault_hook.get());
    }
    shards_.push_back(std::move(shard));
  }
}

SortService::~SortService() = default;

Status SortService::RegisterTenant(const TenantSpec& tenant) {
  if (tenant.name.empty()) {
    return Status::InvalidArgument("tenant name must be non-empty");
  }
  if (tenants_.count(tenant.name) != 0) {
    return Status::InvalidArgument("tenant already registered: " +
                                   tenant.name);
  }
  const Status backend = approx::CheckBackendName(tenant.backend);
  if (!backend.ok()) return backend;
  if (!std::isnan(tenant.knob)) {
    // Validate the knob against a throwaway backend instance now, so a bad
    // profile is a recoverable registration error instead of a crash in
    // the middle of a batch.
    approx::BackendContext context;
    context.calibration = calibration_;
    context.calibration_trials = options_.calibration_trials;
    StatusOr<std::unique_ptr<approx::MemoryBackend>> backend =
        approx::CreateMemoryBackend(tenant.backend, context);
    if (!backend.ok()) return backend.status();
    const Status valid =
        (*backend)->Validate(approx::AllocSpec::Approx(tenant.knob, 1));
    if (!valid.ok()) return valid;
  }
  // Out-of-core settings must be runnable: a lease too small for a 2-run
  // sort, or larger than the tenant budget, would make every kExtSort job
  // fail (or never admit) — registration errors, not batch surprises.
  if (tenant.extsort.lease_bytes <
      2 * extsort::kRecordRunFootprintBytesPerElement) {
    return Status::InvalidArgument(
        "extsort lease below the working set of a 2-element run for "
        "tenant " +
        tenant.name);
  }
  if (tenant.extsort.lease_bytes > tenant.extsort_budget_bytes) {
    return Status::InvalidArgument(
        "extsort lease exceeds the tenant extsort budget for tenant " +
        tenant.name);
  }
  {
    const Status device_valid = tenant.extsort.device.Validate();
    if (!device_valid.ok()) return device_valid;
  }
  if (tenant.epoch_cost_quota < 0.0) {
    return Status::InvalidArgument(
        "epoch_cost_quota must be non-negative for tenant " + tenant.name);
  }
  TenantState state;
  state.spec = tenant;
  state.extsort_budget =
      std::make_unique<MemoryBudget>(tenant.extsort_budget_bytes);
  tenants_.emplace(tenant.name, std::move(state));
  return Status::Ok();
}

StatusOr<uint64_t> SortService::Submit(const SortRequest& request) {
  if (tenants_.count(request.tenant) == 0) {
    return Status::InvalidArgument("unknown tenant: " + request.tenant);
  }
  if (request.n == 0) {
    return Status::InvalidArgument("empty sort request");
  }
  const uint64_t ticket = records_.size();
  JobRecord record;
  record.ticket = ticket;
  record.request = request;
  ++stats_.jobs_submitted;
  submit_time_.push_back(NowSeconds());
  virtual_submit_us_.push_back(virtual_now_us_);
  if (backlog_.size() >= options_.admission.queue_capacity) {
    ShedJob(record, ServiceWearEpoch(),
            "backlog full (" +
                std::to_string(options_.admission.queue_capacity) +
                " queued); shed at submission");
    records_.push_back(std::move(record));
    return ticket;
  }
  records_.push_back(std::move(record));
  backlog_.push_back(ticket);
  if (backlog_.size() > stats_.backlog_high_water) {
    stats_.backlog_high_water = backlog_.size();
  }
  return ticket;
}

size_t SortService::RunBatch() {
  if (backlog_.empty()) return 0;

  // End of life: when every shard's substrate is exhausted nothing can run
  // correctly anymore, so the whole backlog is shed with an honest status
  // rather than pretending retired banks still hold data.
  if (options_.endurance.enabled) {
    bool any_live = false;
    for (const auto& shard : shards_) {
      if (!shard->endurance || shard->endurance->live_banks() > 0) {
        any_live = true;
        break;
      }
    }
    if (!any_live) {
      const uint64_t epoch = ServiceWearEpoch();
      while (!backlog_.empty()) {
        JobRecord& record = records_[backlog_.front()];
        backlog_.pop_front();
        ShedJob(record, epoch,
                "service substrate exhausted: every bank on every shard is "
                "retired");
        ++stats_.jobs_shed_exhausted;
      }
      return 0;
    }
  }
  ++stats_.batches;

  // Admission: walk the backlog FIFO and place each job on the least-
  // loaded shard that still has quota. Every input here — queue order,
  // quotas, cooldown flags, live-bank capacity — is deterministic
  // shared-shard state, so the per-shard run lists are identical at any
  // thread count.
  std::vector<int> quota(shards_.size());
  for (size_t s = 0; s < shards_.size(); ++s) {
    shards_[s]->run_list.clear();
    // Graceful degradation: a shard's quota shrinks with its live-bank
    // capacity — an aged substrate takes proportionally less traffic, and
    // an exhausted one admits nothing at all.
    int capacity_quota = options_.admission.shard_batch_quota;
    if (const approx::EnduranceLedger* endurance =
            shards_[s]->endurance.get()) {
      if (endurance->live_banks() == 0) {
        capacity_quota = 0;
      } else if (endurance->live_banks() < endurance->total_banks()) {
        capacity_quota = std::max(
            1, capacity_quota * endurance->live_banks() /
                   endurance->total_banks());
      }
    }
    if (shards_[s]->cooling) {
      quota[s] = std::min(kCooldownAdmit, capacity_quota);
      ++stats_.cooldown_batches;
    } else {
      quota[s] = capacity_quota;
    }
  }
  std::deque<uint64_t> deferred;
  const uint64_t admission_epoch = ServiceWearEpoch();
  while (!backlog_.empty()) {
    const uint64_t ticket = backlog_.front();
    backlog_.pop_front();
    JobRecord& record = records_[ticket];
    TenantState& tenant = tenants_.at(record.request.tenant);
    // Tenant cost quota: a tenant at or over its Eq. 2 write-cost budget
    // for the current wear epoch is shed honestly, not run on credit. The
    // charged totals only change on the driver thread (merge-on-report),
    // so this check is deterministic.
    if (tenant.spec.epoch_cost_quota > 0.0) {
      const auto charged = tenant.epoch_write_cost.find(admission_epoch);
      if (charged != tenant.epoch_write_cost.end() &&
          charged->second >= tenant.spec.epoch_cost_quota) {
        ShedJob(record, admission_epoch,
                "tenant " + record.request.tenant +
                    " exhausted its Eq. 2 write-cost quota for wear epoch " +
                    std::to_string(admission_epoch));
        ++stats_.jobs_shed_quota;
        continue;
      }
    }
    int best = -1;
    for (size_t s = 0; s < shards_.size(); ++s) {
      if (static_cast<int>(shards_[s]->run_list.size()) >= quota[s]) continue;
      if (best < 0 || shards_[s]->run_list.size() <
                          shards_[static_cast<size_t>(best)]->run_list.size()) {
        best = static_cast<int>(s);
      }
    }
    // An out-of-core job also needs its working-memory lease from the
    // tenant's extsort budget before it may run; a full budget defers the
    // job exactly like a full shard quota.
    bool lease_ok = true;
    if (best >= 0 &&
        record.request.job_class == core::JobClass::kExtSort) {
      const size_t lease_bytes = tenant.spec.extsort.lease_bytes;
      if (tenant.extsort_budget->CanReserve(lease_bytes)) {
        extsort_leases_.emplace(
            ticket,
            BudgetReservation(tenant.extsort_budget.get(), lease_bytes));
      } else {
        lease_ok = false;
      }
    }
    if (best >= 0 && lease_ok) {
      record.shard = best;
      record.batch = static_cast<int>(stats_.batches) - 1;
      shards_[static_cast<size_t>(best)]->run_list.push_back(ticket);
      continue;
    }
    ++record.deferrals;
    ++stats_.deferral_events;
    if (record.deferrals > options_.admission.max_deferrals) {
      ShedJob(record, ServiceWearEpoch(),
              "shed by admission control after " +
                  std::to_string(record.deferrals) + " deferrals");
    } else {
      record.state = JobState::kDeferred;
      deferred.push_back(ticket);
    }
  }
  backlog_ = std::move(deferred);

  size_t executed = 0;
  for (const auto& shard : shards_) executed += shard->run_list.size();
  if (executed > 0) {
    pool_->ParallelFor(0, shards_.size(),
                       [this](size_t s) { ExecuteShard(*shards_[s]); });
  }

  // Merge-on-report: terminal-state counters, per-epoch SLO samples,
  // tenant cost charges, lease releases, and cross-engine quarantine
  // totals are folded in on the driver thread, after the batch barrier.
  // Iteration is in shard order, so the fold is identical at any thread
  // count. The virtual clock advances here too: each shard replays its run
  // list as a serial queue from the batch's start position, and the
  // service clock moves to the latest shard queue position — async_device
  // channel semantics with shards as channels.
  const uint64_t charge_epoch = ServiceWearEpoch();
  double batch_end_us = virtual_now_us_;
  for (const auto& shard : shards_) {
    double clock_us = virtual_now_us_;
    for (const uint64_t ticket : shard->run_list) {
      JobRecord& record = records_[ticket];
      clock_us += record.service_us;
      record.virtual_latency_us = clock_us - virtual_submit_us_[ticket];
      extsort_leases_.erase(ticket);
      switch (record.state) {
        case JobState::kCompleted:
          ++stats_.jobs_completed;
          tenants_.at(record.request.tenant)
              .epoch_write_cost[charge_epoch] += record.cost.write_cost;
          slo_.RecordCompleted(record.wear_epoch, record.latency_seconds,
                               record.virtual_latency_us,
                               record.write_reduction);
          break;
        case JobState::kShed:
          // A job can only reach kShed inside a run list when its shard's
          // substrate ran out of banks under it mid-batch.
          ++stats_.jobs_shed;
          ++stats_.jobs_shed_exhausted;
          slo_.RecordShed(record.wear_epoch);
          break;
        default:
          // Failed jobs still paid their writes; the quota charges the
          // honest cumulative cost, exactly like the tenant ledger.
          ++stats_.jobs_failed;
          tenants_.at(record.request.tenant)
              .epoch_write_cost[charge_epoch] += record.cost.write_cost;
          slo_.RecordFailed(record.wear_epoch);
          break;
      }
    }
    batch_end_us = std::max(batch_end_us, clock_us);
  }
  virtual_now_us_ = batch_end_us;
  uint64_t quarantined = 0;
  uint64_t retired = 0;
  for (size_t s = 0; s < shards_.size(); ++s) {
    quarantined += shard_health(static_cast<int>(s)).regions_quarantined;
    if (shards_[s]->endurance) {
      retired += shards_[s]->endurance->wear_epoch();
    }
  }
  stats_.quarantined_regions = quarantined;
  stats_.banks_retired = retired;
  return executed;
}

void SortService::ShedJob(JobRecord& record, uint64_t epoch,
                          const std::string& reason) {
  record.state = JobState::kShed;
  record.status = Status::Unavailable(reason);
  record.wear_epoch = epoch;
  record.latency_seconds = NowSeconds() - submit_time_[record.ticket];
  record.virtual_latency_us =
      virtual_now_us_ - virtual_submit_us_[record.ticket];
  ++stats_.jobs_shed;
  slo_.RecordShed(epoch);
}

uint64_t SortService::ServiceWearEpoch() const {
  uint64_t epoch = 0;
  for (const auto& shard : shards_) {
    if (shard->endurance) epoch += shard->endurance->wear_epoch();
  }
  return epoch;
}

void SortService::RunUntilIdle() {
  while (!backlog_.empty()) RunBatch();
}

ServiceStats SortService::Run(const RequestTrace& trace) {
  for (const auto& burst : trace.bursts) {
    for (const SortRequest& request : burst) {
      const StatusOr<uint64_t> ticket = Submit(request);
      APPROXMEM_CHECK_OK(ticket.status());
    }
    RunBatch();
  }
  RunUntilIdle();
  return stats_;
}

core::ApproxSortEngine& SortService::EngineFor(Shard& shard,
                                               const TenantSpec& tenant) {
  auto it = shard.engines.find(tenant.name);
  if (it != shard.engines.end()) return *it->second;
  core::EngineOptions engine_options;
  engine_options.backend = tenant.backend;
  engine_options.seed = ShardEngineSeed(options_.seed, shard.index, tenant);
  engine_options.calibration_trials = options_.calibration_trials;
  engine_options.shared_calibration = calibration_;
  engine_options.health.enabled = true;
  engine_options.placement = shard.wear.get();
  engine_options.fault_hook = shard.wear_hook
                                  ? shard.wear_hook.get()
                                  : shard.fault_hook.get();
  // Jobs already run shard-parallel; intra-sort stays serial so a fully
  // loaded service never oversubscribes the host.
  engine_options.sort_threads = 1;
  auto engine = std::make_unique<core::ApproxSortEngine>(engine_options);
  core::ApproxSortEngine& ref = *engine;
  shard.engines.emplace(tenant.name, std::move(engine));
  return ref;
}

void SortService::ExecuteShard(Shard& shard) {
  bool escalated = false;
  for (const uint64_t ticket : shard.run_list) {
    RunJob(shard, ticket);
    const JobRecord& record = records_[ticket];
    if (record.state != JobState::kCompleted || record.attempts > 1) {
      escalated = true;
    }
  }
  // A shard that admitted nothing this batch has rested; its cooldown ends.
  shard.cooling = escalated;
}

void SortService::RunJob(Shard& shard, uint64_t ticket) {
  JobRecord& record = records_[ticket];
  const TenantSpec& tenant = tenants_.at(record.request.tenant).spec;
  if (shard.endurance) {
    record.wear_epoch = shard.endurance->wear_epoch();
    // The shard may have lost its last bank earlier in this very batch;
    // shed honestly instead of running on a fully retired substrate.
    if (shard.endurance->live_banks() == 0) {
      record.state = JobState::kShed;
      record.status = Status::Unavailable(
          "shard substrate exhausted: every bank retired");
      record.latency_seconds = NowSeconds() - submit_time_[ticket];
      return;
    }
  }
  core::ApproxSortEngine& engine = EngineFor(shard, tenant);
  approx::ApproxMemory& memory = engine.memory();
  shard.wear->BeginJob();
  if (shard.wear_hook) shard.wear_hook->BeginJob(ticket);
  double knob = std::isnan(tenant.knob)
                    ? memory.backend().default_approx_knob()
                    : tenant.knob;
  // Graceful degradation, knob half: tighten toward precise as the
  // shard's surviving banks age. The level is a pure function of charged
  // wear, so the tightening replays bit-identically.
  if (shard.endurance) {
    const int level = shard.endurance->MaxLiveEscalationLevel();
    if (level > 0) {
      knob = std::max(memory.backend().min_knob(),
                      knob * std::pow(kAgingKnobFactor, level));
    }
  }
  record.effective_knob = knob;
  core::JobContext context;
  context.engine = &engine;
  context.ticket = ticket;
  context.knob = knob;
  context.resilience = tenant.resilience;
  // On an endurance-modeled substrate, quarantines mean persistent damage;
  // re-reading the same placement cannot cure it (see resilience.h).
  if (shard.endurance) context.resilience.skip_retry_on_quarantine = true;

  core::JobOutcome& outcome = record;
  if (record.request.job_class == core::JobClass::kExtSort) {
    outcome = extsort::ExtsortJobPlan(record.request, tenant.extsort)
                  .Execute(context);
  } else {
    outcome = core::InMemoryJobPlan(record.request).Execute(context);
  }
  record.state = record.status.ok() && record.verified
                     ? JobState::kCompleted
                     : JobState::kFailed;
  shard.wear->ChargeJobCost(record.cost.pv_iterations);
  record.latency_seconds = NowSeconds() - submit_time_[ticket];
}

const JobRecord& SortService::job(uint64_t ticket) const {
  APPROXMEM_CHECK(ticket < records_.size());
  return records_[ticket];
}

TenantLedger SortService::tenant_ledger(const std::string& tenant) const {
  TenantLedger ledger;
  for (const JobRecord& record : records_) {
    if (record.request.tenant != tenant) continue;
    ledger.deferral_events += static_cast<uint64_t>(record.deferrals);
    switch (record.state) {
      case JobState::kCompleted:
        ++ledger.jobs_completed;
        ledger.cost += record.cost;
        ledger.baseline_write_cost += record.baseline_write_cost;
        break;
      case JobState::kFailed:
        ++ledger.jobs_failed;
        ledger.cost += record.cost;
        ledger.baseline_write_cost += record.baseline_write_cost;
        break;
      case JobState::kShed:
        ++ledger.jobs_shed;
        break;
      case JobState::kQueued:
      case JobState::kDeferred:
        break;
    }
  }
  return ledger;
}

std::vector<std::string> SortService::tenant_names() const {
  std::vector<std::string> names;
  names.reserve(tenants_.size());
  for (const auto& [name, state] : tenants_) names.push_back(name);
  return names;
}

double SortService::tenant_epoch_cost(const std::string& tenant,
                                      uint64_t epoch) const {
  const auto it = tenants_.find(tenant);
  if (it == tenants_.end()) return 0.0;
  const auto cost = it->second.epoch_write_cost.find(epoch);
  return cost != it->second.epoch_write_cost.end() ? cost->second : 0.0;
}

const WearPlacement& SortService::shard_wear(int shard) const {
  APPROXMEM_CHECK(shard >= 0 &&
                  shard < static_cast<int>(shards_.size()));
  return *shards_[static_cast<size_t>(shard)]->wear;
}

const approx::EnduranceLedger* SortService::shard_endurance(
    int shard) const {
  APPROXMEM_CHECK(shard >= 0 &&
                  shard < static_cast<int>(shards_.size()));
  return shards_[static_cast<size_t>(shard)]->endurance.get();
}

uint64_t SortService::RetirementTimelineDigest() const {
  uint64_t h = Fnv1a64(nullptr, 0);
  for (const auto& shard : shards_) {
    const uint64_t d =
        shard->endurance ? shard->endurance->TimelineDigest() : 0;
    h = Fnv1a64Word(h, d);
  }
  return h;
}

approx::HealthStats SortService::shard_health(int shard) const {
  APPROXMEM_CHECK(shard >= 0 &&
                  shard < static_cast<int>(shards_.size()));
  approx::HealthStats total;
  for (const auto& [name, engine] : shards_[static_cast<size_t>(shard)]
                                        ->engines) {
    const approx::HealthStats& stats = engine->memory().health().stats();
    total.canary_writes += stats.canary_writes;
    total.canary_errors += stats.canary_errors;
    total.regions_probed += stats.regions_probed;
    total.regions_quarantined += stats.regions_quarantined;
    total.allocation_retries += stats.allocation_retries;
    total.canary_costs += stats.canary_costs;
  }
  return total;
}

}  // namespace approxmem::service
