#include "core/job_plan.h"

#include <vector>

#include "common/hash.h"

namespace approxmem::core {

uint64_t VectorDigest(const std::vector<uint32_t>& values) {
  if (values.empty()) return 0;
  return Fnv1a64(values.data(), values.size() * sizeof(uint32_t));
}

std::string_view JobClassName(JobClass job_class) {
  switch (job_class) {
    case JobClass::kInMemory:
      return "in-memory";
    case JobClass::kExtSort:
      return "extsort";
  }
  return "unknown";
}

JobOutcome InMemoryJobPlan::Execute(const JobContext& context) {
  JobOutcome outcome;
  ApproxSortEngine& engine = *context.engine;
  // Key every allocation stream of this job by its ticket alone: the job's
  // simulated error draws no longer depend on how many allocations earlier
  // jobs on this substrate consumed.
  engine.memory().BeginJobStream(context.ticket);
  const std::vector<uint32_t> keys =
      MakeKeys(job_.workload, job_.n, job_.seed);

  std::vector<uint32_t> final_keys;
  std::vector<uint32_t> final_ids;
  const StatusOr<ResilienceReport> report =
      SortResilient(engine, keys, job_.algorithm, context.knob,
                    context.resilience, &final_keys, &final_ids);
  if (!report.ok()) {
    outcome.status = report.status();
  } else {
    outcome.attempts = report->attempts.size();
    outcome.verified = report->verified;
    outcome.cost = report->cumulative;
    outcome.baseline_write_cost = report->baseline.TotalWriteCost();
    outcome.write_reduction = report->write_reduction;
    outcome.status =
        report->verified
            ? Status::Ok()
            : Status::Unavailable("resilience ladder exhausted unverified");
  }
  outcome.keys_digest = VectorDigest(final_keys);
  outcome.ids_digest = VectorDigest(final_ids);
  // Modeled service time: the simulated memory traffic (ns) this job cost,
  // on the shard's single modeled execution unit.
  outcome.service_us =
      (outcome.cost.write_cost + outcome.cost.read_cost) / 1000.0;
  return outcome;
}

}  // namespace approxmem::core
