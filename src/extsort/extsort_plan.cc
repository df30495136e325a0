#include "extsort/extsort_plan.h"

#include <utility>
#include <vector>

namespace approxmem::extsort {
namespace {

/// Stages `keys` as a fresh input file and zeroes the virtual clock so the
/// sort's timeline starts at 0 instead of queued behind the staging write.
int StageInput(AsyncDevice& device, std::vector<uint32_t> keys) {
  const int input = device.CreateFile();
  if (!keys.empty()) {
    device.Wait(device.SubmitWrite(input, std::move(keys), 0.0));
  }
  device.ResetClock();
  return input;
}

}  // namespace

core::JobOutcome ExtsortJobPlan::Execute(const core::JobContext& context) {
  core::JobOutcome outcome;
  core::ApproxSortEngine& engine = *context.engine;
  const std::vector<uint32_t> keys =
      core::MakeKeys(job_.workload, job_.n, job_.seed);
  // Every run of this job rebases the substrate RNG onto
  // (ticket-keyed salt) ^ (run index) — the same BeginJobStream contract
  // as the in-memory plan, extended over runs.
  const uint64_t stream_salt =
      (context.ticket + 1) * 0x9e3779b97f4a7c15ULL;

  ExternalSortOptions sort_options;
  sort_options.memory_budget_bytes = options_.lease_bytes;
  sort_options.algorithm = job_.algorithm;
  sort_options.t = context.knob;
  // A precise backend advertises knob 0: its approx stage would be the
  // precise sort anyway, so run the precise pipeline outright (Eq. 2 then
  // honestly reports ~0 reduction, same as the in-memory path).
  sort_options.use_approx_refine = context.knob > 0.0;
  sort_options.record_payloads = true;
  sort_options.stream_salt = stream_salt;

  AsyncDevice device(options_.device, nullptr);
  const int input = StageInput(device, keys);
  int output = -1;
  const StatusOr<ExternalSortReport> report =
      ExternalSort(engine, device, input, sort_options, &output);
  if (!report.ok()) {
    outcome.status = report.status();
    return outcome;
  }
  outcome.attempts = 1;
  outcome.verified = report->verified;
  outcome.cost = report->memory_stats;
  outcome.bytes_spilled = report->bytes_spilled;
  outcome.merge_passes = report->merge_passes;
  outcome.initial_runs = report->initial_runs;
  // Modeled service time: the whole out-of-core pipeline's virtual
  // makespan (device busy time and in-memory sort compute, overlapped).
  outcome.service_us = report->Total().makespan_us;
  outcome.status =
      outcome.verified
          ? Status::Ok()
          : Status::Unavailable(
                "external sort output failed the permutation certificate");

  // Digests over the deinterleaved output — the same <final keys, final
  // rowids> shape the in-memory plans digest, so replay gates compare the
  // two classes uniformly.
  device.Drain();
  const std::vector<uint32_t> pairs = device.PeekData(output);
  std::vector<uint32_t> out_keys(pairs.size() / 2);
  std::vector<uint32_t> out_ids(pairs.size() / 2);
  for (size_t i = 0; i < out_keys.size(); ++i) {
    out_keys[i] = pairs[2 * i];
    out_ids[i] = pairs[2 * i + 1];
  }
  outcome.keys_digest = core::VectorDigest(out_keys);
  outcome.ids_digest = core::VectorDigest(out_ids);

  // Equation 2's denominator: the identical pipeline with precise
  // in-memory sorts, on a throwaway device so its traffic never leaks
  // into the approx configuration's ledger.
  ExternalSortOptions baseline_options = sort_options;
  baseline_options.use_approx_refine = false;
  baseline_options.verify = false;
  AsyncDevice baseline_device(options_.device, nullptr);
  const int baseline_input = StageInput(baseline_device, keys);
  const StatusOr<ExternalSortReport> baseline = ExternalSort(
      engine, baseline_device, baseline_input, baseline_options, nullptr);
  if (!baseline.ok()) {
    outcome.status = baseline.status();
    outcome.verified = false;
    return outcome;
  }
  outcome.baseline_write_cost = baseline->memory_write_cost;
  if (outcome.baseline_write_cost > 0.0) {
    outcome.write_reduction =
        1.0 - outcome.cost.write_cost / outcome.baseline_write_cost;
  }
  return outcome;
}

}  // namespace approxmem::extsort
