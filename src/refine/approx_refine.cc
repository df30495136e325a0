#include "refine/approx_refine.h"

#include <algorithm>
#include <string>
#include <unordered_set>
#include <utility>

#include "common/check.h"
#include "sortedness/lis.h"

namespace approxmem::refine {
namespace {

// Wraps an allocator so scratch arrays report their accounting into `sink`
// when the sort that allocated them drops them.
ArrayAlloc WithSink(const ArrayAlloc& alloc, approx::MemoryStats* sink) {
  return [&alloc, sink](size_t n) {
    approx::ApproxArrayU32 array = alloc(n);
    array.SetStatsSink(sink);
    return array;
  };
}

// Writes the ids 0, 1, ..., n - 1 to the front of `ids` in SetRange
// blocks: the same simulated writes as a Set loop.
void StoreIota(approx::ApproxArrayU32& ids, size_t n) {
  constexpr size_t kBlock = 256;
  uint32_t block[kBlock];
  for (size_t start = 0; start < n; start += kBlock) {
    const size_t m = std::min(kBlock, n - start);
    for (size_t k = 0; k < m; ++k) block[k] = static_cast<uint32_t>(start + k);
    ids.SetRange(start, block, m);
  }
}

}  // namespace

std::string_view VerifyFailureKindName(VerifyFailureKind kind) {
  switch (kind) {
    case VerifyFailureKind::kNone:
      return "NONE";
    case VerifyFailureKind::kOrderViolation:
      return "ORDER_VIOLATION";
    case VerifyFailureKind::kIdPermutationLoss:
      return "ID_PERMUTATION_LOSS";
    case VerifyFailureKind::kKeyIdMismatch:
      return "KEY_ID_MISMATCH";
  }
  return "UNKNOWN";
}

std::string VerificationReport::ToString() const {
  if (ok()) return "ok";
  return std::string(VerifyFailureKindName(failure)) + " first at " +
         std::to_string(first_violation) + " (" +
         std::to_string(violation_count) + " violations)";
}

VerificationReport VerifyRefineOutput(const std::vector<uint32_t>& input_keys,
                                      const std::vector<uint32_t>& out_keys,
                                      const std::vector<uint32_t>& out_ids,
                                      bool merge_conserved) {
  VerificationReport v;
  const size_t n = input_keys.size();
  const auto note = [&v](VerifyFailureKind kind, size_t index) {
    if (v.failure == VerifyFailureKind::kNone) {
      v.failure = kind;
      v.first_violation = index;
    }
    ++v.violation_count;
  };
  // Element conservation: a merge that lost or duplicated elements cannot
  // have produced a permutation, whatever the element-wise checks say.
  if (!merge_conserved || out_keys.size() != n || out_ids.size() != n) {
    note(VerifyFailureKind::kIdPermutationLoss, n);
  }
  for (size_t i = 1; i < out_keys.size(); ++i) {
    if (out_keys[i - 1] > out_keys[i]) {
      note(VerifyFailureKind::kOrderViolation, i);
    }
  }
  const size_t m = std::min(out_keys.size(), out_ids.size());
  std::vector<bool> seen(n, false);
  for (size_t i = 0; i < m; ++i) {
    const uint32_t rid = out_ids[i];
    if (rid >= n || seen[rid]) {
      note(VerifyFailureKind::kIdPermutationLoss, i);
      continue;
    }
    seen[rid] = true;
    if (out_keys[i] != input_keys[rid]) {
      note(VerifyFailureKind::kKeyIdMismatch, i);
    }
  }
  return v;
}

std::vector<size_t> HeuristicRemPositions(const std::vector<uint32_t>& values) {
  std::vector<size_t> rem;
  const size_t n = values.size();
  if (n < 2) return rem;
  uint32_t lis_tail = values[0];  // The first element is assumed in the LIS.
  for (size_t i = 1; i + 1 < n; ++i) {
    if (values[i] >= lis_tail && values[i] <= values[i + 1]) {
      lis_tail = values[i];
    } else {
      rem.push_back(i);
    }
  }
  if (lis_tail > values[n - 1]) rem.push_back(n - 1);
  return rem;
}

double RefineReport::TotalWriteCost() const {
  return prep_approx.write_cost + prep_precise.write_cost +
         sort_approx.write_cost + sort_precise.write_cost +
         refine_precise.write_cost;
}

double RefineReport::TotalReadCost() const {
  return prep_approx.read_cost + prep_precise.read_cost +
         sort_approx.read_cost + sort_precise.read_cost +
         refine_precise.read_cost;
}

double RefineReport::ApproxStageWriteCost() const {
  return prep_approx.write_cost + prep_precise.write_cost +
         sort_approx.write_cost + sort_precise.write_cost;
}

double RefineReport::RefineStageWriteCost() const {
  return refine_precise.write_cost;
}

approx::MemoryStats RefineReport::TotalStats() const {
  approx::MemoryStats total;
  total += prep_approx;
  total += prep_precise;
  total += sort_approx;
  total += sort_precise;
  total += refine_precise;
  return total;
}

Status RunApproxStage(const std::vector<uint32_t>& keys,
                      const RefineOptions& options, ApproxStageState* state) {
  if (!options.approx_alloc || !options.precise_alloc) {
    return Status::InvalidArgument(
        "approx_alloc and precise_alloc must be set");
  }
  const size_t n = keys.size();
  *state = ApproxStageState();
  state->n = n;
  state->input_keys = keys;
  state->report.n = n;
  if (n == 0) return Status::Ok();

  state->sort_rng = Rng(options.sort_seed);
  RefineReport& report = state->report;

  // ---- Warm-up: Key0 and ID live in precise memory; loading the inputs is
  // not part of the measured cost (the data is given).
  state->key0.emplace(options.precise_alloc(n));
  approx::ApproxArrayU32& key0 = *state->key0;
  key0.Store(keys);
  state->id.emplace(options.precise_alloc(n));
  approx::ApproxArrayU32& id = *state->id;
  StoreIota(id, n);
  key0.ResetStats();
  id.ResetStats();

  // ---- Approx preparation: copy Key0 into the approximate domain.
  state->key_approx.emplace(options.approx_alloc(n));
  approx::ApproxArrayU32& key_approx = *state->key_approx;
  key_approx.CopyFrom(key0);
  report.prep_approx = key_approx.stats();
  report.prep_precise = key0.stats();
  key_approx.ResetStats();
  key0.ResetStats();

  // ---- Approx stage: sort <Key~, ID>; key traffic is approximate, ID
  // traffic precise, and scratch follows suit.
  Status sort_status = Status::Ok();
  {
    sort::SortSpec spec;
    spec.keys = &key_approx;
    spec.ids = &id;
    spec.alloc_key_buffer = WithSink(options.approx_alloc,
                                     &report.sort_approx);
    spec.alloc_id_buffer = WithSink(options.precise_alloc,
                                    &report.sort_precise);
    spec.tuning = options.tuning;
    sort_status = sort::RunSort(spec, options.algorithm, state->sort_rng);
  }
  // Accumulate before propagating any error: an aborted sort's traffic must
  // stay on the ledger so callers that retry account for the full cost.
  report.sort_approx += key_approx.stats();
  report.sort_precise += id.stats();
  key_approx.ResetStats();
  id.ResetStats();
  if (!sort_status.ok()) return sort_status;

  if (options.measure_approx_sortedness) {
    report.approx_sortedness = sortedness::Measure(key_approx);
  }
  return Status::Ok();
}

Status RunRefineStage(ApproxStageState& state, const RefineOptions& options,
                      RefineReport* report, std::vector<uint32_t>* final_keys,
                      std::vector<uint32_t>* final_ids) {
  if (!options.precise_alloc) {
    return Status::InvalidArgument("precise_alloc must be set");
  }
  if (!state.ready()) {
    return Status::FailedPrecondition(
        "RunRefineStage needs a state produced by RunApproxStage");
  }
  const size_t n = state.n;
  *report = state.report;
  report->verification = VerificationReport{};
  if (n == 0) {
    if (final_keys != nullptr) final_keys->clear();
    if (final_ids != nullptr) final_ids->clear();
    return Status::Ok();
  }
  approx::ApproxArrayU32& key0 = *state.key0;
  approx::ApproxArrayU32& id = *state.id;
  // Re-runs restart the pivot stream exactly where the approx stage left
  // it, so a retry is a replay, not a new random experiment.
  Rng sort_rng = state.sort_rng;

  // Charges this run's Key0/ID access costs to `report` and zeroes the
  // arrays' counters so a subsequent retry starts from a clean ledger.
  const auto close_ledger = [&]() {
    report->refine_precise += key0.stats();
    report->refine_precise += id.stats();
    key0.ResetStats();
    id.ResetStats();
  };

  // ---- Refine preparation: nothing is materialized; Key~ is recovered via
  // Key0[ID[i]] reads throughout the refine stage (writes saved by reads).

  // ---- Refine stage, step 1: extract a sorted subsequence of Key~ (read
  // back through Key0[ID[i]]); leftovers land in REMID. The scan reads ID
  // once and Key0 once per element (Listing 1's single pass).
  // IDs read back from precise memory are contracted to be < n, but a
  // fault-injection harness can corrupt them in storage; clamp untrusted
  // indices so the lookups stay in bounds and verification (which checks
  // the ID column against the original keys) reports the corruption
  // instead of the process aborting on a bounds CHECK.
  const auto key0_at = [&key0, n](uint32_t index) {
    return key0.Get(index < n ? index : index % n);
  };
  std::vector<uint32_t> ids(n);
  std::vector<uint32_t> current(n);
  for (size_t i = 0; i < n; ++i) {
    ids[i] = id.Get(i);
    current[i] = key0_at(ids[i]);
  }
  std::vector<uint32_t> rem_ids;
  if (options.lis_mode == LisMode::kHeuristic) {
    for (const size_t pos : HeuristicRemPositions(current)) {
      rem_ids.push_back(ids[pos]);
    }
  } else {
    // Exact patience LIS. The classical algorithm keeps predecessor links
    // and pile tails — ~2n words of intermediate state, which we charge as
    // precise writes (the cost Section 4.2 argues against paying).
    approx::ApproxArrayU32 prev_state = options.precise_alloc(n);
    approx::ApproxArrayU32 pile_state = options.precise_alloc(n);
    const std::vector<uint8_t> member =
        sortedness::LongestNonDecreasingMembership(current);
    for (size_t i = 0; i < n; ++i) {
      // Model the predecessor-link and pile bookkeeping writes.
      prev_state.Set(i, static_cast<uint32_t>(i));
      pile_state.Set(i, member[i]);
      if (member[i] == 0) rem_ids.push_back(ids[i]);
    }
    report->refine_precise += prev_state.stats();
    report->refine_precise += pile_state.stats();
  }
  report->rem_estimate = rem_ids.size();
  const size_t rem = rem_ids.size();

  // Materialize REMID (Rem~ precise writes, as in the paper's ledger).
  approx::ApproxArrayU32 remid = options.precise_alloc(rem);
  remid.Store(rem_ids);

  // ---- Refine stage, step 2: sort REMID by key value with the same
  // algorithm, entirely in precise memory. The key column is materialized
  // from Key0 (Rem~ additional precise writes; slightly conservative
  // relative to the paper's alpha(Rem~)-only ledger, see DESIGN.md).
  approx::ApproxArrayU32 rem_keys = options.precise_alloc(rem);
  for (size_t j = 0; j < rem; ++j) {
    rem_keys.Set(j, key0_at(remid.Get(j)));
  }
  {
    sort::SortSpec spec;
    spec.keys = &rem_keys;
    spec.ids = &remid;
    spec.alloc_key_buffer = WithSink(options.precise_alloc,
                                     &report->refine_precise);
    spec.alloc_id_buffer = WithSink(options.precise_alloc,
                                    &report->refine_precise);
    spec.tuning = options.tuning;
    const Status status = sort::RunSort(spec, options.algorithm, sort_rng);
    if (!status.ok()) {
      // Close the ledger before propagating: the aborted attempt's costs
      // stay accounted (REMID/RemKeys traffic plus Key0/ID reads so far).
      report->refine_precise += remid.stats();
      report->refine_precise += rem_keys.stats();
      close_ledger();
      return status;
    }
  }

  // ---- Refine stage, step 3 (Listing 2): merge the approximate LIS (re-
  // scanned from ID, skipping REMID members) with the sorted REMID.
  // Materializing REMIDset costs Rem~ writes, as in the listing. Host-side
  // membership is one flag per id in [0, n); ids past n come only from a
  // corrupted ID column and go in a side set.
  std::vector<uint8_t> in_remid(n, 0);
  std::unordered_set<uint32_t> remid_out_of_range;
  for (const uint32_t rem_id : rem_ids) {
    if (rem_id < n) {
      in_remid[rem_id] = 1;
    } else {
      remid_out_of_range.insert(rem_id);
    }
  }
  const auto in_remid_set = [&](uint32_t rem_id) {
    return rem_id < n ? in_remid[rem_id] != 0
                      : remid_out_of_range.count(rem_id) != 0;
  };
  approx::ApproxArrayU32 remid_set_storage = options.precise_alloc(rem);
  remid_set_storage.Store(rem_ids);

  approx::ApproxArrayU32 final_key_array = options.precise_alloc(n);
  approx::ApproxArrayU32 final_id_array = options.precise_alloc(n);
  // The merge emits exactly n elements when ID is the permutation the
  // approx stage is contracted to preserve. A corrupted ID column (e.g.
  // faults injected into precise memory) can make it emit more or fewer;
  // clamp the writes and let verification fail instead of aborting, so a
  // fault-injection harness can observe the failure.
  bool merge_conserved = true;
  {
    size_t lis_ptr = 0;
    size_t rem_ptr = 0;
    size_t final_ptr = 0;
    while (lis_ptr < n) {
      // Find the next element of the approximate LIS.
      uint32_t lis_id = 0;
      bool have_lis = false;
      while (lis_ptr < n) {
        lis_id = id.Get(lis_ptr);
        if (!in_remid_set(lis_id)) {
          have_lis = true;
          break;
        }
        ++lis_ptr;
      }
      if (!have_lis) break;
      const uint32_t lis_key = key0_at(lis_id);
      // Merge: emit REMID entries smaller than the LIS head first.
      while (rem_ptr < rem && final_ptr < n) {
        const uint32_t rem_id = remid.Get(rem_ptr);
        const uint32_t rem_key = key0_at(rem_id);
        if (rem_key >= lis_key) break;
        final_id_array.Set(final_ptr, rem_id);
        final_key_array.Set(final_ptr, rem_key);
        ++final_ptr;
        ++rem_ptr;
      }
      if (final_ptr >= n) {
        merge_conserved = false;
        break;
      }
      final_id_array.Set(final_ptr, lis_id);
      final_key_array.Set(final_ptr, lis_key);
      ++final_ptr;
      ++lis_ptr;
    }
    while (rem_ptr < rem && final_ptr < n) {
      const uint32_t rem_id = remid.Get(rem_ptr);
      final_id_array.Set(final_ptr, rem_id);
      final_key_array.Set(final_ptr, key0_at(rem_id));
      ++final_ptr;
      ++rem_ptr;
    }
    if (final_ptr != n || rem_ptr != rem) merge_conserved = false;
  }

  // ---- Verification: exactly sorted, consistent, and a permutation.
  {
    std::vector<uint32_t> out_keys = final_key_array.Snapshot();
    std::vector<uint32_t> out_ids = final_id_array.Snapshot();
    report->verification = VerifyRefineOutput(state.input_keys, out_keys,
                                              out_ids, merge_conserved);
    if (final_keys != nullptr) *final_keys = std::move(out_keys);
    if (final_ids != nullptr) *final_ids = std::move(out_ids);
  }

  // ---- Close the ledger: everything the refine stage touched in precise
  // memory (Key0/ID reads, REMID, RemKeys, set storage, outputs).
  report->refine_precise += remid.stats();
  report->refine_precise += rem_keys.stats();
  report->refine_precise += remid_set_storage.stats();
  report->refine_precise += final_key_array.stats();
  report->refine_precise += final_id_array.stats();
  close_ledger();
  return Status::Ok();
}

StatusOr<RefineReport> ApproxRefineSort(const std::vector<uint32_t>& keys,
                                        const RefineOptions& options,
                                        std::vector<uint32_t>* final_keys,
                                        std::vector<uint32_t>* final_ids) {
  ApproxStageState state;
  Status status = RunApproxStage(keys, options, &state);
  if (!status.ok()) return status;
  RefineReport report;
  status = RunRefineStage(state, options, &report, final_keys, final_ids);
  if (!status.ok()) return status;
  return report;
}

StatusOr<PreciseBaselineReport> PreciseSortBaseline(
    const std::vector<uint32_t>& keys, const sort::AlgorithmId& algorithm,
    const ArrayAlloc& precise_alloc, uint64_t sort_seed, bool with_ids,
    std::vector<uint32_t>* sorted_keys, const sort::SortTuning& tuning,
    std::vector<uint32_t>* sorted_ids) {
  if (!precise_alloc) {
    return Status::InvalidArgument("precise_alloc must be set");
  }
  if (sorted_ids != nullptr && !with_ids) {
    return Status::InvalidArgument("sorted_ids requires with_ids");
  }
  const size_t n = keys.size();
  PreciseBaselineReport report;
  report.n = n;

  approx::ApproxArrayU32 key_array = precise_alloc(n);
  key_array.Store(keys);
  approx::ApproxArrayU32 id_array = precise_alloc(with_ids ? n : 0);
  if (with_ids) StoreIota(id_array, n);
  key_array.ResetStats();
  id_array.ResetStats();

  approx::MemoryStats key_scratch;
  approx::MemoryStats id_scratch;
  {
    sort::SortSpec spec;
    spec.keys = &key_array;
    spec.ids = with_ids ? &id_array : nullptr;
    spec.alloc_key_buffer = WithSink(precise_alloc, &key_scratch);
    spec.alloc_id_buffer = WithSink(precise_alloc, &id_scratch);
    spec.tuning = tuning;
    Rng rng(sort_seed);
    const Status status = sort::RunSort(spec, algorithm, rng);
    if (!status.ok()) return status;
  }
  report.keys = key_array.stats() + key_scratch;
  report.ids = id_array.stats() + id_scratch;
  // Checked in place: most callers want the costs, not the sorted keys.
  report.verified = true;
  for (size_t i = 1; i < n && report.verified; ++i) {
    report.verified = key_array.PeekActual(i - 1) <= key_array.PeekActual(i);
  }
  if (sorted_keys != nullptr) *sorted_keys = key_array.Snapshot();
  if (sorted_ids != nullptr) *sorted_ids = id_array.Snapshot();
  return report;
}

double WriteReduction(const RefineReport& refine,
                      const PreciseBaselineReport& baseline) {
  const double precise_cost = baseline.TotalWriteCost();
  if (precise_cost <= 0.0) return 0.0;
  return 1.0 - refine.TotalWriteCost() / precise_cost;
}

}  // namespace approxmem::refine
