// The common job abstraction both sorting execution paths implement.
//
// A SortJob is a client-phrased description of one sort: which class of
// execution it needs (in-memory approx-refine, or the out-of-core external
// sort), which algorithm, and which generated workload. A JobPlan is the
// executable form of one class: the service (or any other scheduler) picks
// the concrete plan for a job and drives it through the single Execute()
// entry point, so admission control, wear accounting, and the Eq. 2 tenant
// ledgers never need to know which path ran underneath.
//
// Determinism contract, inherited by every plan: Execute must derive all
// RNG streams from (engine seed, context.ticket, job.seed) alone — the
// in-memory plan rebases the hybrid memory onto the ticket
// (ApproxMemory::BeginJobStream), the out-of-core plan rebases each run
// onto a ticket-keyed stream salt — and JobOutcome::service_us must be a
// pure function of the modeled cost ledgers, never of wall clock. That is
// what keeps every digest and the service's virtual-time latencies
// byte-identical at any thread count.
//
// The out-of-core plan lives in src/extsort/extsort_plan.h (extsort depends
// on core, so the concrete plan cannot live here); the in-memory plan is
// below.
#ifndef APPROXMEM_CORE_JOB_PLAN_H_
#define APPROXMEM_CORE_JOB_PLAN_H_

#include <cstddef>
#include <cstdint>
#include <string_view>
#include <vector>

#include "approx/memory_stats.h"
#include "common/status.h"
#include "core/engine.h"
#include "core/resilience.h"
#include "core/workload.h"
#include "sort/sort_common.h"

namespace approxmem::core {

/// Which execution path a job runs on.
enum class JobClass : uint8_t {
  /// The whole input fits the substrate: resilient approx-refine
  /// (core/resilience.h).
  kInMemory = 0,
  /// Out-of-core: the external sort under a modeled MemoryBudget lease,
  /// spilling key+rowid records to an async block device.
  kExtSort = 1,
};

/// "in-memory" / "extsort".
std::string_view JobClassName(JobClass job_class);

/// One sort job as a client would phrase it. Inputs are generated from
/// (workload, n, seed) — callers ship no payload bytes.
struct SortJob {
  JobClass job_class = JobClass::kInMemory;
  sort::AlgorithmId algorithm{sort::SortKind::kLsdRadix, 3};
  WorkloadKind workload = WorkloadKind::kUniform;
  size_t n = 1024;
  /// Seeds the key generator for this job.
  uint64_t seed = 1;
};

/// Everything a plan needs from whoever schedules it. The engine is the
/// substrate the job runs on (owned by the caller; for the service, by the
/// shard); the ticket keys every RNG stream the job consumes.
struct JobContext {
  ApproxSortEngine* engine = nullptr;
  uint64_t ticket = 0;
  /// Effective approximation knob, after any aging-driven tightening.
  double knob = 0.0;
  /// Bounds of the in-memory plan's verified-retry ladder.
  ResilienceOptions resilience;
};

/// Class-agnostic outcome of one executed job: everything the scheduler
/// needs for terminal-state bookkeeping, the Eq. 2 tenant ledgers, wear
/// charging, and the virtual-time SLO clock.
struct JobOutcome {
  Status status = Status::Ok();
  /// Output verified exactly sorted (and, for record payloads, a
  /// permutation certificate against the input).
  bool verified = false;
  /// Resilience-ladder attempts consumed (1 = first try verified).
  size_t attempts = 0;
  /// FNV-1a digests of the final keys / final record IDs.
  uint64_t keys_digest = 0;
  uint64_t ids_digest = 0;
  /// The job's honest cumulative simulated-memory cost (every attempt, or
  /// every run of the external sort).
  approx::MemoryStats cost;
  /// Precise-baseline write cost (Equation 2's denominator).
  double baseline_write_cost = 0.0;
  /// Equation 2 over the job's cumulative cost.
  double write_reduction = 0.0;
  /// Deterministic modeled service time in virtual µs — memory cost for
  /// the in-memory plan, the device makespan for the out-of-core plan.
  /// Feeds the service's virtual-time latency ledger, never wall clock.
  double service_us = 0.0;
  // Out-of-core extras; zero for in-memory jobs.
  uint64_t bytes_spilled = 0;
  size_t merge_passes = 0;
  size_t initial_runs = 0;
};

/// The executable form of one job class.
class JobPlan {
 public:
  virtual ~JobPlan() = default;
  virtual JobClass job_class() const = 0;
  /// Runs the job on context.engine and returns the full outcome. Errors
  /// are reported in JobOutcome::status (with whatever cost was paid
  /// before the failure still accounted), never thrown.
  virtual JobOutcome Execute(const JobContext& context) = 0;
};

/// FNV-1a digest of a key or record-ID vector (0 when empty): the form of
/// JobOutcome::keys_digest and ids_digest for every plan.
uint64_t VectorDigest(const std::vector<uint32_t>& values);

/// The in-memory path: core::SortResilient's verified-retry ladder, with
/// its per-job precise baseline.
class InMemoryJobPlan : public JobPlan {
 public:
  explicit InMemoryJobPlan(const SortJob& job) : job_(job) {}

  JobClass job_class() const override { return JobClass::kInMemory; }
  JobOutcome Execute(const JobContext& context) override;

 private:
  SortJob job_;
};

}  // namespace approxmem::core

#endif  // APPROXMEM_CORE_JOB_PLAN_H_
