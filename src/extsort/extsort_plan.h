// The out-of-core JobPlan: ExternalSort as a schedulable job class.
//
// ExtsortJobPlan wraps one record-payload external sort behind the
// core::JobPlan interface so the sort service can admit out-of-core jobs
// through the same queue as in-memory ones. Each Execute():
//
//   * builds a private AsyncDevice from the plan's device config (byte
//     movement inline on the executing thread — shards are serial inside,
//     so a pool would add nothing but nondeterministic interleaving),
//   * stages the generated input keys and resets the virtual clock,
//   * runs the approx-refine external sort under a working-memory budget
//     of lease_bytes with record payloads on (spills are <key, rowid>
//     pairs, the output a permutation certificate), every run's RNG
//     rebased onto a ticket-keyed stream salt,
//   * runs the precise-configuration external sort on a second throwaway
//     device for Equation 2's denominator — the same per-job baseline the
//     in-memory plans pay,
//   * and reports the device makespan of the approx configuration as the
//     job's deterministic virtual service time.
//
// The plan itself takes no MemoryBudget lease; the scheduler reserves
// lease_bytes from the tenant budget at admission (deterministically, on
// the driver thread) and the plan's internal ExternalSort budget equals
// the lease, so the modeled working set never exceeds what was granted.
#ifndef APPROXMEM_EXTSORT_EXTSORT_PLAN_H_
#define APPROXMEM_EXTSORT_EXTSORT_PLAN_H_

#include <cstddef>
#include <cstdint>

#include "core/job_plan.h"
#include "extsort/async_device.h"
#include "extsort/external_sort.h"

namespace approxmem::extsort {

/// Per-tenant out-of-core execution settings.
struct ExtsortPlanOptions {
  /// Modeled working memory one job's external sort runs under — the
  /// lease the scheduler reserves from the tenant budget for the job's
  /// whole execution.
  size_t lease_bytes = 512u << 10;
  /// Geometry and timing of the job's modeled block device.
  AsyncDeviceConfig device;
};

class ExtsortJobPlan : public core::JobPlan {
 public:
  ExtsortJobPlan(const core::SortJob& job, const ExtsortPlanOptions& options)
      : job_(job), options_(options) {}

  core::JobClass job_class() const override {
    return core::JobClass::kExtSort;
  }
  core::JobOutcome Execute(const core::JobContext& context) override;

 private:
  core::SortJob job_;
  ExtsortPlanOptions options_;
};

}  // namespace approxmem::extsort

#endif  // APPROXMEM_EXTSORT_EXTSORT_PLAN_H_
