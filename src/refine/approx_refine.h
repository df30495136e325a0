// The approx-refine execution mechanism (Section 4).
//
// Five stages: warm-up (inputs in precise memory), approx preparation (copy
// keys to approximate memory), approx stage (sort keys approximately, IDs
// precisely), refine preparation (notation only — Key~ is always recovered
// through Key0[ID[i]] reads to save writes), and the refine stage:
//   1. one linear scan extracting an approximate longest increasing
//      subsequence and the leftover REMID (Listing 1),
//   2. sort REMID by key value with the same algorithm, in precise memory,
//   3. one write-limited merge producing finalKey/finalID (Listing 2).
// The output is exactly sorted regardless of how much the approx stage was
// corrupted; only its cost depends on the corruption.
#ifndef APPROXMEM_REFINE_APPROX_REFINE_H_
#define APPROXMEM_REFINE_APPROX_REFINE_H_

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "approx/approx_array.h"
#include "approx/memory_stats.h"
#include "common/random.h"
#include "common/status.h"
#include "sort/sort_common.h"
#include "sortedness/measures.h"

namespace approxmem::refine {

/// Allocator of arrays in some precision domain.
using ArrayAlloc = std::function<approx::ApproxArrayU32(size_t)>;

/// How step 1 of the refine stage extracts the sorted subsequence.
enum class LisMode {
  /// Listing 1's one-pass heuristic: O(n) time, ~Rem~ intermediate writes.
  kHeuristic,
  /// Exact patience LIS: finds the true minimum REM but pays O(n log n)
  /// time and ~2n intermediate precise writes for predecessor state — the
  /// trade-off the paper rejects in Section 4.2. Provided as an ablation.
  kExact,
};

/// Configuration of one approx-refine execution.
struct RefineOptions {
  sort::AlgorithmId algorithm;
  LisMode lis_mode = LisMode::kHeuristic;
  /// Allocates arrays in the approximate key domain (PCM at some T, or
  /// spintronic at some operating point).
  ArrayAlloc approx_alloc;
  /// Allocates arrays in the precise domain of the same technology.
  ArrayAlloc precise_alloc;
  /// Pivot randomness for the sorts.
  uint64_t sort_seed = 1;
  /// When true, compute the exact Rem / sortedness of the approx-stage
  /// output (costs an LIS pass; off for large sweeps if undesired).
  bool measure_approx_sortedness = true;
  /// Intra-sort execution tuning (worker pool), applied to every sort the
  /// pipeline runs. Never changes results — see SortTuning.
  sort::SortTuning tuning;
};

/// How the final <Key, ID> output violated the exactly-sorted contract.
enum class VerifyFailureKind : uint8_t {
  kNone = 0,
  /// finalKey is not non-decreasing.
  kOrderViolation,
  /// finalID is not a permutation of 0..n-1 (out-of-range or duplicated
  /// IDs, or a merge that emitted the wrong number of elements).
  kIdPermutationLoss,
  /// finalKey[i] != Key0[finalID[i]] for some i.
  kKeyIdMismatch,
};

/// "NONE", "ORDER_VIOLATION", "ID_PERMUTATION_LOSS", "KEY_ID_MISMATCH".
std::string_view VerifyFailureKindName(VerifyFailureKind kind);

/// Structured outcome of output verification: the category of the first
/// violation, where it happened, and how many violations there are in
/// total — the diagnostics a retry policy needs to decide how to recover.
struct VerificationReport {
  VerifyFailureKind failure = VerifyFailureKind::kNone;
  /// Index of the first violating output element (n for a merge that lost
  /// conservation without any per-element violation).
  size_t first_violation = 0;
  /// Total violations across all checks (order, permutation, key-ID).
  size_t violation_count = 0;

  bool ok() const { return failure == VerifyFailureKind::kNone; }
  /// "ok" or e.g. "ORDER_VIOLATION first at 37 (3 violations)".
  std::string ToString() const;
};

/// Verifies a <Key, ID> output against the original keys: non-decreasing
/// keys, IDs a permutation of 0..n-1, and finalKey[i] == Key0[finalID[i]].
/// `merge_conserved` is false when the producing merge already lost
/// element conservation (counted as an ID-permutation loss). With a `pool`
/// of two or more threads, a clean output is confirmed in stripes on it;
/// any anomaly re-runs the serial check, so the report is the same at
/// every pool size.
VerificationReport VerifyRefineOutput(const std::vector<uint32_t>& input_keys,
                                      const std::vector<uint32_t>& out_keys,
                                      const std::vector<uint32_t>& out_ids,
                                      bool merge_conserved = true,
                                      ThreadPool* pool = nullptr);

/// Cost ledger and verification outcome of one approx-refine execution.
struct RefineReport {
  size_t n = 0;

  // Per-stage accounting. "approx" covers the approximate key array and all
  // approximate scratch; "precise" covers IDs, Key0, outputs and precise
  // scratch. Units follow the domain's write model (ns or energy).
  approx::MemoryStats prep_approx;     // Approx preparation: Key0 -> Key~.
  approx::MemoryStats prep_precise;    // Approx preparation: Key0 reads.
  approx::MemoryStats sort_approx;     // Approx stage, approximate side.
  approx::MemoryStats sort_precise;    // Approx stage, ID movements.
  approx::MemoryStats refine_precise;  // Refine stage (entirely precise).

  /// |REMID| found by the Listing 1 heuristic (Rem~ in the paper).
  size_t rem_estimate = 0;
  /// Sortedness of Key~ right after the approx stage (exact Rem etc.),
  /// filled when RefineOptions.measure_approx_sortedness is set.
  sortedness::SortednessReport approx_sortedness;

  /// Structured verification diagnostics: failure category, first
  /// violating index, and violation count (see VerificationReport).
  VerificationReport verification;

  /// Derived accessor kept for compatibility: true iff finalKey is
  /// non-decreasing, finalID is a permutation of the input IDs, and
  /// finalKey[i] == Key0[finalID[i]] for all i.
  bool verified() const { return verification.ok(); }

  /// Total write cost across all stages (the paper's TMWL under
  /// approx-refine when the domain is PCM).
  double TotalWriteCost() const;
  double TotalReadCost() const;
  double ApproxStageWriteCost() const;
  double RefineStageWriteCost() const;
  /// Total precise-domain write *operations* in the refine stage; the paper
  /// shows this stays below 3n + alpha(Rem~), near the 2n lower bound.
  uint64_t RefineWriteOps() const { return refine_precise.word_writes; }
  /// All five ledgers summed: the attempt's total traffic in one place
  /// (what a resilient execution accumulates per attempt).
  approx::MemoryStats TotalStats() const;
};

/// Listing 1's heuristic on a plain value sequence: returns the positions
/// NOT in the approximate LIS (an element stays iff it is >= the running
/// tail and <= its right neighbour; the first element always stays; the
/// last stays unless it is below the tail). Exposed for tests; the pipeline
/// runs it over values read back through Key0[ID[i]].
std::vector<size_t> HeuristicRemPositions(const std::vector<uint32_t>& values);

/// State handed from the approx stage to the refine stage when the pipeline
/// is run in two halves (RunApproxStage + RunRefineStage). A resilient
/// executor keeps this alive so a failed refine stage can be re-run against
/// the same approx-stage output without paying the approx stage again.
struct ApproxStageState {
  size_t n = 0;
  /// The original input keys (host copy, not instrumented memory) — the
  /// ground truth that verification checks the output against.
  std::vector<uint32_t> input_keys;
  /// Key0, ID, and Key~ as left by the approx stage. optional<> because
  /// ApproxArrayU32 is move-only without a default state.
  std::optional<approx::ApproxArrayU32> key0;
  std::optional<approx::ApproxArrayU32> id;
  std::optional<approx::ApproxArrayU32> key_approx;
  /// Pivot RNG exactly as the approx-stage sort left it; each refine run
  /// resumes from a copy, so split execution consumes the same stream the
  /// monolithic ApproxRefineSort would (and retries are replayable).
  Rng sort_rng;
  /// Ledger through the approx stage (warm-up, prep, approx sort). Filled
  /// even when RunApproxStage fails mid-sort, so callers can account for
  /// an aborted attempt's traffic instead of dropping it.
  RefineReport report;

  /// True when the state can feed RunRefineStage (n == 0 needs no arrays).
  bool ready() const { return n == 0 || key0.has_value(); }
};

/// Runs warm-up, approx preparation, and the approx stage over `keys`,
/// leaving everything the refine stage needs in `*state` (overwritten).
/// On error, `state->report` still holds all costs paid so far, including
/// the aborted sort's traffic.
Status RunApproxStage(const std::vector<uint32_t>& keys,
                      const RefineOptions& options, ApproxStageState* state);

/// Runs the refine stage (steps 1-3) plus verification against the approx-
/// stage output in `state`. `*report` receives a copy of `state.report`
/// with this run's refine costs and verification added; the ledger closes
/// even when the REMID sort fails. Repeatable: Key0/ID/Key~ are only read,
/// their access costs are charged to this run's ledger and then reset, and
/// the pivot stream restarts from `state.sort_rng` each call.
Status RunRefineStage(ApproxStageState& state, const RefineOptions& options,
                      RefineReport* report, std::vector<uint32_t>* final_keys,
                      std::vector<uint32_t>* final_ids);

/// Runs approx-refine over `keys` (record IDs are 0..n-1). Outputs the
/// exactly sorted keys and the matching permutation of record IDs when the
/// out-pointers are non-null. Equivalent to RunApproxStage + RunRefineStage
/// over a throwaway state.
StatusOr<RefineReport> ApproxRefineSort(const std::vector<uint32_t>& keys,
                                        const RefineOptions& options,
                                        std::vector<uint32_t>* final_keys,
                                        std::vector<uint32_t>* final_ids);

/// Cost ledger of the traditional baseline: the same algorithm run entirely
/// in precise memory over <Key, ID> pairs.
struct PreciseBaselineReport {
  size_t n = 0;
  approx::MemoryStats keys;
  approx::MemoryStats ids;
  bool verified = false;

  double TotalWriteCost() const { return keys.write_cost + ids.write_cost; }
  uint64_t TotalWriteOps() const {
    return keys.word_writes + ids.word_writes;
  }
};

/// Runs the precise-only baseline (Equation 2's denominator). When
/// `sorted_keys` is non-null it receives the sorted output (used by the
/// external-sort baseline configuration); `sorted_ids` likewise receives
/// the matching record-ID permutation (requires with_ids).
StatusOr<PreciseBaselineReport> PreciseSortBaseline(
    const std::vector<uint32_t>& keys, const sort::AlgorithmId& algorithm,
    const ArrayAlloc& precise_alloc, uint64_t sort_seed, bool with_ids = true,
    std::vector<uint32_t>* sorted_keys = nullptr,
    const sort::SortTuning& tuning = {},
    std::vector<uint32_t>* sorted_ids = nullptr);

/// Write reduction of approx-refine relative to the precise baseline
/// (Equation 2): 1 - TMWL(approx-refine) / TMWL(precise).
double WriteReduction(const RefineReport& refine,
                      const PreciseBaselineReport& baseline);

}  // namespace approxmem::refine

#endif  // APPROXMEM_REFINE_APPROX_REFINE_H_
