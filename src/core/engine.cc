#include "core/engine.h"

#include <utility>

#include "common/hash.h"
#include "refine/cost_model.h"

namespace approxmem::core {

ApproxSortEngine::ApproxSortEngine(const EngineOptions& options)
    : options_(options), memory_(options) {}

sort::SortTuning ApproxSortEngine::SortTuningForRuns() {
  sort::SortTuning tuning;
  if (options_.sort_pool != nullptr) {
    tuning.pool = options_.sort_pool;
  } else if (options_.sort_threads != 1) {
    if (owned_sort_pool_ == nullptr) {
      owned_sort_pool_ = std::make_unique<ThreadPool>(options_.sort_threads);
    }
    tuning.pool = owned_sort_pool_.get();
  }
  return tuning;
}

Status ApproxSortEngine::ValidateKnob(double knob, size_t n) const {
  return memory_.backend().Validate(approx::AllocSpec::Approx(knob, n));
}

uint64_t ApproxSortEngine::SortSeed() const {
  return options_.seed ^ 0x4e414cULL;
}

uint64_t ApproxSortEngine::SortSeed(uint64_t stream_key) const {
  return Mix64(SortSeed() ^ (stream_key + kSplitMix64Gamma));
}

refine::RefineOptions ApproxSortEngine::RefineOptionsFor(
    const sort::AlgorithmId& algorithm, double knob, uint64_t sort_seed) {
  refine::RefineOptions options;
  options.algorithm = algorithm;
  options.approx_alloc = [this, knob](size_t n) {
    return memory_.NewApproxArray(n, knob);
  };
  options.precise_alloc = [this](size_t n) {
    return memory_.NewPreciseArray(n);
  };
  options.sort_seed = sort_seed;
  options.tuning = SortTuningForRuns();
  return options;
}

StatusOr<refine::PreciseBaselineReport> ApproxSortEngine::PreciseBaseline(
    const std::vector<uint32_t>& keys, const sort::AlgorithmId& algorithm,
    uint64_t sort_seed, bool with_ids, std::vector<uint32_t>* sorted_keys,
    std::vector<uint32_t>* sorted_ids) {
  return refine::PreciseSortBaseline(
      keys, algorithm, [this](size_t n) { return memory_.NewPreciseArray(n); },
      sort_seed, with_ids, sorted_keys, SortTuningForRuns(), sorted_ids);
}

StatusOr<ApproxOnlyResult> ApproxSortEngine::SortApproxOnly(
    const std::vector<uint32_t>& keys, const sort::AlgorithmId& algorithm,
    double knob, std::vector<uint32_t>* output) {
  const Status valid = ValidateKnob(knob, keys.size());
  if (!valid.ok()) return valid;
  const refine::RefineOptions run =
      RefineOptionsFor(algorithm, knob, options_.seed ^ 0x5047ULL);
  ApproxOnlyResult result;

  // Approximate run. The input already resides in approximate memory in the
  // Section 3 setup, so loading it is not part of the measured cost.
  {
    approx::ApproxArrayU32 array = run.approx_alloc(keys.size());
    array.Store(keys);
    array.ResetStats();
    approx::MemoryStats scratch_stats;
    sort::SortSpec spec;
    spec.keys = &array;
    spec.ids = nullptr;
    spec.alloc_key_buffer = [&](size_t n) {
      approx::ApproxArrayU32 buffer = run.approx_alloc(n);
      buffer.SetStatsSink(&scratch_stats);
      return buffer;
    };
    spec.tuning = run.tuning;
    Rng rng(run.sort_seed);
    const Status status = sort::RunSort(spec, algorithm, rng);
    if (!status.ok()) return status;
    result.sortedness = sortedness::Measure(array, run.tuning.pool);
    result.approx_stats = array.stats() + scratch_stats;
    if (output != nullptr) *output = array.Snapshot();
  }

  // Precise baseline run (same algorithm, same input, no payload).
  const StatusOr<refine::PreciseBaselineReport> baseline = PreciseBaseline(
      keys, algorithm, run.sort_seed, /*with_ids=*/false);
  if (!baseline.ok()) return baseline.status();
  result.precise_stats = baseline->keys + baseline->ids;

  result.write_reduction =
      result.precise_stats.write_cost > 0.0
          ? 1.0 - result.approx_stats.write_cost /
                      result.precise_stats.write_cost
          : 0.0;
  return result;
}

StatusOr<RefineOutcome> ApproxSortEngine::SortApproxRefine(
    const std::vector<uint32_t>& keys, const sort::AlgorithmId& algorithm,
    double knob, std::vector<uint32_t>* final_keys,
    std::vector<uint32_t>* final_ids) {
  const Status valid = ValidateKnob(knob, keys.size());
  if (!valid.ok()) return valid;
  // The cost model's p(t) generalizes to the backend's approx-to-precise
  // write-cost ratio (the per-write energy ratio under the energy model).
  const double cost_ratio = memory_.WriteCostRatio(knob);
  const refine::RefineOptions run =
      RefineOptionsFor(algorithm, knob, SortSeed());
  RefineOutcome outcome;
  StatusOr<refine::RefineReport> report =
      refine::ApproxRefineSort(keys, run, final_keys, final_ids);
  if (!report.ok()) return report.status();
  outcome.refine = std::move(report.value());

  StatusOr<refine::PreciseBaselineReport> baseline = PreciseBaseline(
      keys, algorithm, run.sort_seed, /*with_ids=*/true);
  if (!baseline.ok()) return baseline.status();
  outcome.baseline = std::move(baseline.value());

  outcome.write_reduction = refine::WriteReduction(outcome.refine,
                                                   outcome.baseline);
  outcome.predicted_write_reduction = refine::PredictWriteReduction(
      algorithm, keys.size(), cost_ratio, outcome.refine.rem_estimate);
  return outcome;
}

StatusOr<refine::RefineReport> ApproxSortEngine::SortRunApproxRefine(
    const std::vector<uint32_t>& keys, const sort::AlgorithmId& algorithm,
    double knob, uint64_t stream_key, std::vector<uint32_t>* final_keys,
    std::vector<uint32_t>* final_ids) {
  const Status valid = ValidateKnob(knob, keys.size());
  if (!valid.ok()) return valid;
  memory_.BeginJobStream(stream_key);
  refine::RefineOptions run =
      RefineOptionsFor(algorithm, knob, SortSeed(stream_key));
  // Runs are large and numerous; the exact-sortedness LIS pass is a
  // diagnostic the external sort does not read.
  run.measure_approx_sortedness = false;
  return refine::ApproxRefineSort(keys, run, final_keys, final_ids);
}

StatusOr<refine::PreciseBaselineReport> ApproxSortEngine::SortRunPrecise(
    const std::vector<uint32_t>& keys, const sort::AlgorithmId& algorithm,
    uint64_t stream_key, std::vector<uint32_t>* sorted_keys,
    std::vector<uint32_t>* sorted_ids) {
  memory_.BeginJobStream(stream_key);
  return PreciseBaseline(keys, algorithm, SortSeed(stream_key),
                         /*with_ids=*/true, sorted_keys, sorted_ids);
}

bool ApproxSortEngine::RecommendApproxRefine(
    const sort::AlgorithmId& algorithm, size_t n, double knob,
    size_t expected_rem) {
  return refine::ShouldUseApproxRefine(algorithm, n,
                                       memory_.WriteCostRatio(knob),
                                       expected_rem);
}

}  // namespace approxmem::core
