// ApproxSortEngine: the library's public facade.
//
// One engine instance owns the simulated hybrid memory (backend, write
// models, calibrations, RNG tree) and exposes the paper's experiment
// families on whichever technology EngineOptions::backend selects:
//   * SortApproxOnly      — Section 3: sort in approximate memory only and
//                           measure sortedness vs. write-cost savings.
//   * SortApproxRefine    — Sections 4-5: the approx-refine mechanism with a
//                           precise-baseline comparison (write reduction).
//   * SortRunApproxRefine / SortRunPrecise — one stream-keyed run of the
//                           out-of-core sort (extsort/external_sort.h), with
//                           no per-run baseline.
//   * core::SortResilient — approx-refine behind the verified-retry ladder
//                           (core/resilience.h); core::InMemoryJobPlan runs
//                           every in-memory job through it.
// All of them take their knob validation, allocators, sort seed and precise
// baseline from the run plumbing below, so they cannot drift apart.
// The Appendix A spintronic experiments are the same calls with
// backend = "spintronic" and the knob set to a per-bit error probability.
//
// EngineOptions is approx::ApproxMemory::Options plus the intra-sort thread
// settings, so each memory setting is declared once, in approx_memory.h,
// and reaches the substrate as given (memory().options()).
//
// Quickstart:
//   core::ApproxSortEngine engine({});
//   auto keys = core::MakeKeys(core::WorkloadKind::kUniform, 1 << 20, 7);
//   auto result = engine.SortApproxRefine(
//       keys, sort::AlgorithmId{sort::SortKind::kLsdRadix, 3}, 0.055);
//   // result->write_reduction, result->refine.verified, ...
#ifndef APPROXMEM_CORE_ENGINE_H_
#define APPROXMEM_CORE_ENGINE_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "approx/approx_memory.h"
#include "common/status.h"
#include "common/thread_pool.h"
#include "refine/approx_refine.h"
#include "sort/sort_common.h"
#include "sortedness/measures.h"

namespace approxmem::core {

/// Engine-wide configuration; defaults reproduce the paper's Tables 1-2.
/// The memory fields (backend, mlc, mode, seed, calibration, fault hook,
/// health monitoring, placement) are approx::ApproxMemory::Options
/// itself, handed to the engine's hybrid memory unchanged; only the
/// intra-sort parallelism below is the engine's own.
struct EngineOptions : approx::ApproxMemory::Options {
  /// Intra-sort parallelism: worker threads for the striped radix passes
  /// (1 = serial). Output, write counts, and cost ledgers are identical at
  /// any setting — only wall-clock changes. <= 0 means hardware
  /// concurrency.
  int sort_threads = 1;
  /// Optional externally owned pool for the intra-sort passes; overrides
  /// sort_threads when set (the engine then spawns no threads). Not owned.
  ThreadPool* sort_pool = nullptr;
};

/// Result of sorting in approximate memory only (no precise output).
struct ApproxOnlyResult {
  sortedness::SortednessReport sortedness;
  /// Accounting of the approximate run (keys and approximate scratch).
  approx::MemoryStats approx_stats;
  /// Accounting of the same sort executed in precise memory.
  approx::MemoryStats precise_stats;
  /// Equation 1: 1 - (approx write cost) / (precise write cost).
  double write_reduction = 0.0;
};

/// Result of one approx-refine execution plus its precise baseline.
struct RefineOutcome {
  refine::RefineReport refine;
  refine::PreciseBaselineReport baseline;
  /// Equation 2, measured.
  double write_reduction = 0.0;
  /// Equation 4, predicted from p(t) and the heuristic Rem~.
  double predicted_write_reduction = 0.0;
};

class ApproxSortEngine {
 public:
  explicit ApproxSortEngine(const EngineOptions& options);

  /// Section 3 study: sorts `keys` in approximate memory at the backend
  /// knob `knob` (target-range half-width T on PCM backends, per-bit error
  /// probability on spintronic; payload untouched, as in the paper) and
  /// measures the sortedness of the output and the write cost against a
  /// precise-run baseline. `output`, when non-null, receives the (possibly
  /// unsorted) result.
  StatusOr<ApproxOnlyResult> SortApproxOnly(
      const std::vector<uint32_t>& keys, const sort::AlgorithmId& algorithm,
      double knob, std::vector<uint32_t>* output = nullptr);

  /// Sections 4-5: approx-refine at `knob`, compared with the precise-only
  /// baseline on the same backend. Outputs exactly sorted <Key, ID> pairs.
  StatusOr<RefineOutcome> SortApproxRefine(
      const std::vector<uint32_t>& keys, const sort::AlgorithmId& algorithm,
      double knob, std::vector<uint32_t>* final_keys = nullptr,
      std::vector<uint32_t>* final_ids = nullptr);

  /// Out-of-core run formation handoff: approx-refine sort of one run
  /// WITHOUT the per-run precise baseline that SortApproxRefine always
  /// pays (the external sort compares whole configurations instead, so a
  /// per-run baseline would double every run's cost for nothing). Before
  /// sorting, the hybrid memory's allocation RNG is rebased onto
  /// (seed, stream_key) — the same BeginJobStream trick the multi-tenant
  /// service uses — so the run's simulated error draws depend only on the
  /// experiment seed and the run's own key, never on how many runs (or
  /// which configurations) executed on the substrate before it. That is
  /// what keeps the external sort's spill digests byte-identical at any
  /// thread count.
  StatusOr<refine::RefineReport> SortRunApproxRefine(
      const std::vector<uint32_t>& keys, const sort::AlgorithmId& algorithm,
      double knob, uint64_t stream_key, std::vector<uint32_t>* final_keys,
      std::vector<uint32_t>* final_ids = nullptr);

  /// Precise-domain counterpart for the external sort's baseline
  /// configuration: same RNG rebasing, same absence of a second baseline.
  /// `sorted_ids`, when non-null, receives the record-ID permutation (the
  /// record-payload spill format needs it).
  StatusOr<refine::PreciseBaselineReport> SortRunPrecise(
      const std::vector<uint32_t>& keys, const sort::AlgorithmId& algorithm,
      uint64_t stream_key, std::vector<uint32_t>* sorted_keys,
      std::vector<uint32_t>* sorted_ids = nullptr);

  /// p(t) — the calibrated PCM write-latency ratio (Section 2.2).
  double PvRatio(double t) { return memory_.PvRatio(t); }

  /// Backend-generic approximate-to-precise write-cost ratio at `knob`
  /// (equals PvRatio on the PCM backends, the energy ratio on spintronic).
  double WriteCostRatio(double knob) { return memory_.WriteCostRatio(knob); }

  /// Decision helper: should approx-refine be used for this workload?
  /// Uses Equation 4 with the backend's write-cost ratio and an expected
  /// Rem~.
  bool RecommendApproxRefine(const sort::AlgorithmId& algorithm, size_t n,
                             double knob, size_t expected_rem);

  approx::ApproxMemory& memory() { return memory_; }
  const EngineOptions& options() const { return options_; }

  /// The tuning handed to every sort this engine runs: resolves sort_pool /
  /// sort_threads (lazily spawning an owned pool on first use when
  /// sort_threads != 1 and no external pool was given).
  sort::SortTuning SortTuningForRuns();

  // ---- Run plumbing shared by every entry point and core::SortResilient.

  /// InvalidArgument unless `knob` is a valid approximate setting for an
  /// n-element allocation on this backend.
  Status ValidateKnob(double knob, size_t n) const;

  /// Pivot seed of the approx-refine sorts and their precise baselines: the
  /// engine seed under a fixed salt. The stream-keyed overload mixes in a
  /// run's key so every out-of-core run draws independent pivots.
  uint64_t SortSeed() const;
  uint64_t SortSeed(uint64_t stream_key) const;

  /// Approx-refine options for `algorithm` at `knob`: allocators on this
  /// engine's approximate (at `knob`) and precise domains, SortTuningForRuns,
  /// and `sort_seed`.
  refine::RefineOptions RefineOptionsFor(const sort::AlgorithmId& algorithm,
                                         double knob, uint64_t sort_seed);

  /// Equation 2's denominator: `algorithm` over `keys` entirely in this
  /// engine's precise memory under SortTuningForRuns (see
  /// refine::PreciseSortBaseline for the optional outputs).
  StatusOr<refine::PreciseBaselineReport> PreciseBaseline(
      const std::vector<uint32_t>& keys, const sort::AlgorithmId& algorithm,
      uint64_t sort_seed, bool with_ids,
      std::vector<uint32_t>* sorted_keys = nullptr,
      std::vector<uint32_t>* sorted_ids = nullptr);

 private:
  EngineOptions options_;
  approx::ApproxMemory memory_;
  /// Lazily created when sort_threads != 1 and no sort_pool was provided.
  std::unique_ptr<ThreadPool> owned_sort_pool_;
};

}  // namespace approxmem::core

#endif  // APPROXMEM_CORE_ENGINE_H_
