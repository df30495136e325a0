// Multi-tenant approximate-sort service: a sharded pool of engines behind
// a bounded request queue.
//
// The paper's write-cost savings only matter at scale if many sort jobs
// can share one approximate-memory substrate. SortService is that sharing
// layer: tenants register a (backend, knob, resilience) profile naming one
// of the built-in MemoryBackends, submit SortRequests in arrival bursts,
// and the service batches the backlog onto a sharded pool of
// ApproxSortEngines driven by the deterministic ThreadPool.
//
// Job classes. Both execution paths run through the common core::JobPlan
// abstraction (core/job_plan.h): kInMemory jobs execute the resilient
// approx-refine path, kExtSort jobs the record-payload external sort
// (extsort/extsort_plan.h) under a per-tenant MemoryBudget lease reserved
// at admission. Both classes share one admission queue, charge their Eq. 2
// write cost into the same TenantLedger and WearPlacement accounting, and
// count against the tenant's per-epoch cost quota.
//
// Tenant cost quotas. TenantSpec::epoch_cost_quota bounds the Eq. 2 write
// cost (simulated ns) a tenant may charge per wear epoch (the whole device
// life on an endurance-less substrate). A tenant at or over its quota has
// its queued jobs shed at admission with an honest Unavailable, counted in
// ServiceStats::jobs_shed_quota, until the next epoch starts.
//
// Virtual-time latency. Alongside the wall-clock submit-to-terminal stamps
// (reporting-only, host-noise-prone), the service keeps a deterministic
// virtual clock in the async_device style: every completed job contributes
// its modeled service time (JobOutcome::service_us — memory cost for
// in-memory jobs, device makespan for extsort jobs) to its shard's serial
// queue, shards advance in parallel, and a job's virtual latency is its
// completion position on that clock minus its virtual submit stamp. Pure
// function of the trace and cost ledgers, so bench gates on virtual
// p50/p99 can be hard where wall-clock gates are advisory.
//
// Determinism contract. Scheduling is batch-synchronous: RunBatch admits
// jobs from the FIFO backlog onto per-shard run lists using only
// deterministic state (queue occupancy, per-shard admission quotas,
// cooldown flags), then executes all shards in parallel with a barrier at
// the end of the batch. Each shard runs its list serially, each shard owns
// its substrate (engines, wear ledger, fault hook) exclusively, and every
// job rebases the shard memory's RNG tree onto a substream keyed by its
// ticket alone (ApproxMemory::BeginJobStream). Consequently, for a fixed
// trace and shard count, every job's output digest, cost ledger, and the
// per-tenant cumulative ledgers are byte-identical at ANY thread count —
// threads only decide which shards share a core, never what a shard
// computes. The service_concurrency_test pins this against a serial
// replay at threads one through eight.
//
// Admission control. The backlog is bounded (queue_capacity): submissions
// beyond it are shed immediately with an honest Unavailable status.
// Each batch, a shard admits at most shard_batch_quota jobs — or one job
// (kCooldownAdmit) while it is cooling down because its previous job
// climbed the PR-3 resilience ladder (retry/escalation/fallback) or
// finished unverified. Jobs that find no shard quota are deferred to the
// next batch; after max_deferrals deferrals they are shed, again with an
// honest status. Deferred jobs therefore always terminate: completed,
// failed, or shed — never silently dropped.
//
// Wear-aware placement. Each shard substrate routes every allocation of
// every tenant engine through one WearPlacement policy, rotating hot
// allocations across PCM bank lanes by accumulated P&V wear and steering
// around regions the health monitor quarantined (see wear_placement.h).
//
// Endurance and graceful degradation. With ServiceOptions::endurance
// enabled, every shard substrate carries an approx::EnduranceLedger fed by
// the same Eq. 2 wear ChargeJobCost already charges, plus a WearErrorHook
// that makes aged banks genuinely err more (approx/endurance.h). The
// service reacts to the shrinking substrate instead of pretending it is
// immortal: per-shard admission quotas scale with live-bank capacity, an
// exhausted shard admits nothing (and a fully exhausted service sheds with
// an honest Unavailable), tenant knobs tighten toward precise as a shard's
// banks age (deterministically, from charged wear alone), and a per-wear-
// epoch SLO ledger tracks p50/p99 latency and write-reduction drift across
// the device's life. Retirement timelines and all digests stay
// bit-identical at any thread count — wall clock never feeds a decision.
//
// Threading contract: Submit/RunBatch/RunUntilIdle and all accessors must
// be called from one driver thread; the service parallelizes internally.
#ifndef APPROXMEM_SERVICE_SORT_SERVICE_H_
#define APPROXMEM_SERVICE_SORT_SERVICE_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "approx/endurance.h"
#include "approx/fault_hook.h"
#include "common/memory_budget.h"
#include "common/status.h"
#include "common/thread_pool.h"
#include "core/engine.h"
#include "core/job_plan.h"
#include "core/resilience.h"
#include "extsort/extsort_plan.h"
#include "mlc/calibration.h"
#include "service/service_trace.h"
#include "service/slo_ledger.h"
#include "service/wear_placement.h"

namespace approxmem::service {

/// One tenant's service profile: which memory technology its jobs run on,
/// at what knob, and how hard the resilience ladder may climb for it.
struct TenantSpec {
  std::string name;
  /// Name of the tenant's memory technology (memory_backend.h).
  std::string backend = std::string(approx::kPcmBackendName);
  /// Approximation knob; NaN means the backend's sweet spot.
  double knob = std::numeric_limits<double>::quiet_NaN();
  /// Folded into every engine seed serving this tenant.
  uint64_t seed = 1;
  /// Bounds of the verified-retry ladder (core/resilience.h) every
  /// kInMemory job runs under. (kExtSort jobs verify per run instead.)
  core::ResilienceOptions resilience;
  /// Out-of-core execution settings for the tenant's kExtSort jobs: the
  /// per-job working-memory lease and the modeled device.
  extsort::ExtsortPlanOptions extsort;
  /// Capacity of the tenant's extsort working-memory budget (modeled
  /// bytes). Each kExtSort job reserves extsort.lease_bytes from it at
  /// admission and releases on completion, so the capacity bounds the
  /// tenant's concurrent out-of-core working set; jobs whose lease does
  /// not fit are deferred until one frees.
  size_t extsort_budget_bytes = 1u << 20;
  /// Eq. 2 write-cost quota (simulated ns) the tenant may charge per wear
  /// epoch; 0 = unlimited. At or over quota, the tenant's queued jobs are
  /// shed with an honest Unavailable until the next epoch (on an
  /// endurance-less substrate there is only epoch 0, so the quota is a
  /// whole-life budget).
  double epoch_cost_quota = 0.0;
};

/// Seed of the engine serving `tenant` on shard `shard`: the service seed
/// folded with the tenant's name and seed and the shard index. A standalone
/// engine built with it starts from the shard's byte-identical substrate.
uint64_t ShardEngineSeed(uint64_t service_seed, int shard,
                         const TenantSpec& tenant);

enum class JobState : uint8_t {
  /// In the backlog, not yet admitted to a shard.
  kQueued,
  /// Still in the backlog after at least one failed admission attempt.
  kDeferred,
  /// Ran and produced a verified, exactly sorted output.
  kCompleted,
  /// Ran but errored or finished unverified (status says which).
  kFailed,
  /// Never ran: rejected by admission control (status says why).
  kShed,
};

std::string_view JobStateName(JobState state);

/// Everything the service knows about one submitted job: the plan's
/// outcome (status, digests, cost ledger, Eq. 2, virtual service time and
/// the out-of-core extras; OK and zero until the job ran) plus the
/// scheduling record below.
struct JobRecord : core::JobOutcome {
  uint64_t ticket = 0;
  SortRequest request;
  JobState state = JobState::kQueued;
  /// Shard that ran the job; -1 until admitted.
  int shard = -1;
  /// Batch index the job executed in; -1 until admitted.
  int batch = -1;
  int deferrals = 0;
  /// Wear epoch of the shard substrate the job ran in (retirements so far
  /// when the job started; 0 on a fresh or endurance-less substrate).
  uint64_t wear_epoch = 0;
  /// Knob the job actually ran at, after aging-driven tightening (equals
  /// the tenant knob / backend default on a healthy substrate; 0 until the
  /// job ran).
  double effective_knob = 0.0;
  /// Wall-clock submit-to-terminal latency. Reporting only — never feeds
  /// a digest or a scheduling decision.
  double latency_seconds = 0.0;
  /// Deterministic submit-to-terminal latency on the service's virtual
  /// clock, µs (see the virtual-time paragraph above). Replays
  /// bit-identically at any thread count.
  double virtual_latency_us = 0.0;
};

/// Per-tenant cumulative accounting, merged from job records on report.
struct TenantLedger {
  uint64_t jobs_completed = 0;
  uint64_t jobs_failed = 0;
  uint64_t jobs_shed = 0;
  uint64_t deferral_events = 0;
  /// Sum of completed/failed jobs' cumulative ledgers (Eq. 2 numerator).
  approx::MemoryStats cost;
  /// Sum of the matching precise baselines (Eq. 2 denominator).
  double baseline_write_cost = 0.0;

  /// Cumulative Equation 2 across the tenant's whole traffic.
  double CumulativeWriteReduction() const {
    return baseline_write_cost > 0.0
               ? 1.0 - cost.write_cost / baseline_write_cost
               : 0.0;
  }

  /// FNV-1a digest of every counter — equal digests mean the ledger
  /// replayed identically (e.g. across thread counts).
  uint64_t Digest() const;
};

struct AdmissionOptions {
  /// Upper bound on jobs queued (backlog) awaiting admission; submissions
  /// beyond it are shed at once. The property suite asserts the backlog
  /// high-water mark never exceeds this.
  size_t queue_capacity = 64;
  /// Jobs one shard may admit per batch (a shard cooling down after its
  /// previous job climbed the resilience ladder or finished unverified
  /// admits one).
  int shard_batch_quota = 4;
  /// Deferrals a job survives before admission control sheds it.
  int max_deferrals = 3;
};

struct ServiceOptions {
  int shards = 4;
  /// Threads driving the shard pool; <= 0 means hardware concurrency. Any
  /// value yields identical results; only wall-clock changes.
  int threads = 0;
  uint64_t seed = 42;
  uint64_t calibration_trials = 20000;
  AdmissionOptions admission;
  /// Wear-aware bank rotation, always on for every shard substrate (as is
  /// online health monitoring — canary probes and quarantine — on every
  /// shard engine: a service must notice a degrading substrate).
  WearLevelOptions wear;
  /// Device-lifetime modeling: per-bank P&V budgets, wear-dependent error
  /// escalation, and bank retirement (approx/endurance.h), fed by the
  /// wear placement's job charges; the banks/lane geometry is taken from
  /// `wear`, so leave endurance.banks/bank_lane_bytes at their defaults.
  /// As a shard's banks age, its tenants' knobs halve per escalation level
  /// of the most-aged live bank (floored at the backend's min_knob).
  approx::EnduranceOptions endurance;
  /// Optional shared calibration cache (thread-safe); when null the
  /// service builds one, shared by all shard engines, so each T still
  /// calibrates exactly once per process.
  std::shared_ptr<mlc::CalibrationCache> shared_calibration;
  /// Optional per-shard fault hook factory (fault storms in tests and the
  /// soak bench). Called once per shard at construction; the service owns
  /// the returned hooks. Each hook is only ever driven by its own shard,
  /// so single-threaded hook implementations are safe.
  std::function<std::unique_ptr<approx::MemoryFaultHook>(int shard)>
      fault_hook_factory;
};

/// Aggregate service counters (see also tenant_ledger / shard accessors).
struct ServiceStats {
  size_t batches = 0;
  size_t jobs_submitted = 0;
  size_t jobs_completed = 0;
  size_t jobs_failed = 0;
  size_t jobs_shed = 0;
  /// Job-batches spent waiting in the backlog after an admission miss.
  size_t deferral_events = 0;
  size_t backlog_high_water = 0;
  /// Shard-batches spent in resilience cooldown.
  size_t cooldown_batches = 0;
  /// Regions quarantined across all shard engines.
  uint64_t quarantined_regions = 0;
  /// Banks retired across all shard substrates (0 without endurance).
  uint64_t banks_retired = 0;
  /// Jobs shed because every shard's substrate was exhausted.
  size_t jobs_shed_exhausted = 0;
  /// Jobs shed because their tenant's Eq. 2 write-cost quota for the
  /// current wear epoch was exhausted.
  size_t jobs_shed_quota = 0;
};

class SortService {
 public:
  explicit SortService(const ServiceOptions& options);
  ~SortService();

  SortService(const SortService&) = delete;
  SortService& operator=(const SortService&) = delete;

  /// Registers a tenant profile. Fails on duplicate names, unregistered
  /// backends, or an invalid knob for the backend.
  Status RegisterTenant(const TenantSpec& tenant);

  /// Queues one request and returns its ticket. Unknown tenants return an
  /// error; a full backlog sheds the job immediately (the ticket's record
  /// reports kShed with an honest status).
  StatusOr<uint64_t> Submit(const SortRequest& request);

  /// Admits from the backlog and executes one batch across the shard pool.
  /// Returns the number of jobs that ran.
  size_t RunBatch();

  /// Runs batches until every submitted job is terminal.
  void RunUntilIdle();

  /// Convenience driver: submits each burst of `trace`, running batches
  /// between bursts, then drains. Returns stats() at the end.
  ServiceStats Run(const RequestTrace& trace);

  const JobRecord& job(uint64_t ticket) const;
  const std::vector<JobRecord>& jobs() const { return records_; }

  /// Ledger of `tenant`, merged on the fly from job records.
  TenantLedger tenant_ledger(const std::string& tenant) const;
  std::vector<std::string> tenant_names() const;

  const ServiceStats& stats() const { return stats_; }
  const ServiceOptions& options() const { return options_; }

  /// Shard s's wear ledger.
  const WearPlacement& shard_wear(int shard) const;
  /// Aggregated health-monitor counters across shard `shard`'s engines.
  approx::HealthStats shard_health(int shard) const;
  /// Shard s's endurance ledger (null when endurance is off).
  const approx::EnduranceLedger* shard_endurance(int shard) const;
  /// Per-wear-epoch SLO accounting (wall-clock latency percentiles are
  /// reporting-only; the virtual-time percentiles and everything else are
  /// deterministic).
  const SloLedger& slo() const { return slo_; }
  /// Eq. 2 write cost `tenant` has charged in wear epoch `epoch` — what
  /// the admission quota compares against epoch_cost_quota.
  double tenant_epoch_cost(const std::string& tenant, uint64_t epoch) const;
  /// Current position of the deterministic virtual clock, µs.
  double virtual_now_us() const { return virtual_now_us_; }
  /// FNV digest over every shard's retirement timeline, in shard order —
  /// bit-identical across thread counts and identical replays.
  uint64_t RetirementTimelineDigest() const;

 private:
  struct Shard;

  /// One tenant's runtime state: the registered spec plus the driver-
  /// thread-only accounting admission control reads (extsort budget,
  /// per-epoch charged cost).
  struct TenantState {
    TenantSpec spec;
    /// Bounds the tenant's concurrent extsort working memory; leases are
    /// reserved at admission and released on report, both on the driver
    /// thread, so occupancy is deterministic.
    std::unique_ptr<MemoryBudget> extsort_budget;
    /// Eq. 2 write cost charged per wear epoch (ServiceWearEpoch keys).
    std::map<uint64_t, double> epoch_write_cost;
  };

  core::ApproxSortEngine& EngineFor(Shard& shard, const TenantSpec& tenant);
  void ExecuteShard(Shard& shard);
  void RunJob(Shard& shard, uint64_t ticket);
  /// Sheds a job on the driver thread with an honest Unavailable `reason`:
  /// sets its state, status and wear `epoch`, stamps both latencies, and
  /// counts the shed in the stats and the epoch's SLO. Callers bump their
  /// own sub-counter.
  void ShedJob(JobRecord& record, uint64_t epoch, const std::string& reason);
  /// Retirements summed across all shard substrates — the epoch stamped on
  /// jobs that never reached a shard, and the key tenant cost quotas are
  /// charged under.
  uint64_t ServiceWearEpoch() const;

  ServiceOptions options_;
  std::shared_ptr<mlc::CalibrationCache> calibration_;
  std::unique_ptr<ThreadPool> pool_;
  std::map<std::string, TenantState> tenants_;
  std::vector<std::unique_ptr<Shard>> shards_;
  std::vector<JobRecord> records_;
  /// Tickets awaiting admission, FIFO.
  std::deque<uint64_t> backlog_;
  /// Submit wall-clock stamps (seconds on a steady clock), per ticket.
  std::vector<double> submit_time_;
  /// Virtual-clock submit stamps, µs, per ticket.
  std::vector<double> virtual_submit_us_;
  /// The deterministic service-wide virtual clock: advanced each batch to
  /// the latest shard queue position.
  double virtual_now_us_ = 0.0;
  /// Live extsort leases by ticket (reserved at admission, released on
  /// report).
  std::map<uint64_t, BudgetReservation> extsort_leases_;
  ServiceStats stats_;
  SloLedger slo_;
};

}  // namespace approxmem::service

#endif  // APPROXMEM_SERVICE_SORT_SERVICE_H_
