#include "refine/approx_refine.h"

#include <algorithm>
#include <initializer_list>
#include <string>
#include <unordered_set>
#include <utility>

#include "common/check.h"
#include "common/thread_pool.h"
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

// IDs read back from precise memory are contracted to be < n, but a
// fault-injection harness can corrupt them in storage; clamping untrusted
// indices keeps the Key0 lookups in bounds, and verification (which checks
// the ID column against the original keys) reports the corruption instead
// of the process aborting on a bounds CHECK.
uint32_t ClampId(uint32_t id, size_t n) {
  return id < n ? id : static_cast<uint32_t>(id % n);
}

// How the refine steps (scan, REMID-key fill, merge) reach one array.
//
// DirectAccess issues each Get and Set in program order. Fault hooks and a
// banked device observe that order, and a hook may change the values read.
//
// CountedAccess is for plain arrays: precise, with no hook and no device.
// Such an array returns what it stores, and every read of it costs the
// same, so k reads in any order leave the ledger of one exact repeated add
// (ChargeReads). A read is served from the host: from a value the caller
// already holds (Reread: nothing writes Key0, ID or REMID during the steps)
// or from the stored word (Read). Writes go through a block buffer into
// SetRange; the steps write each array at 0, 1, 2, ... in order, which is
// the sequential rule SetRange charges. Both policies leave bit-identical
// values and ledgers.
struct DirectAccess {
  // The scan reads ID and Key0 element by element, interleaved.
  static constexpr size_t kScanBlock = 1;

  class Array {
   public:
    explicit Array(approx::ApproxArrayU32& array) : array_(array) {}
    uint32_t Read(size_t i) { return array_.Get(i); }
    uint32_t Reread(size_t i, uint32_t /*held*/) { return array_.Get(i); }
    void Write(size_t i, uint32_t value) { array_.Set(i, value); }
    void Close() {}

   private:
    approx::ApproxArrayU32& array_;
  };
};

struct CountedAccess {
  static constexpr size_t kScanBlock = 256;

  class Array {
   public:
    explicit Array(approx::ApproxArrayU32& array) : array_(array) {}
    uint32_t Read(size_t i) {
      APPROXMEM_CHECK(i < array_.size());
      ++reads_;
      return array_.PeekActual(i);
    }
    uint32_t Reread(size_t /*i*/, uint32_t held) {
      ++reads_;
      return held;
    }
    void Write(size_t i, uint32_t value) {
      if (fill_ == kBlock || i != start_ + fill_) Flush(i);
      block_[fill_++] = value;
    }
    // Stores the buffered words and charges the counted reads.
    void Close() {
      Flush(0);
      array_.ChargeReads(reads_);
      reads_ = 0;
    }

   private:
    static constexpr size_t kBlock = 256;

    void Flush(size_t next_start) {
      array_.SetRange(start_, block_, fill_);
      start_ = next_start;
      fill_ = 0;
    }

    approx::ApproxArrayU32& array_;
    size_t reads_ = 0;
    size_t start_ = 0;
    size_t fill_ = 0;
    uint32_t block_[kBlock];
  };
};

bool AllPlain(std::initializer_list<const approx::ApproxArrayU32*> arrays) {
  return std::all_of(arrays.begin(), arrays.end(),
                     [](const approx::ApproxArrayU32* array) {
                       return array->precise() && array->unobserved();
                     });
}

// Step 1's single pass (Listing 1): ids[i] = ID[i] and
// current[i] = Key0[ids[i]], one read each, in blocks of kScanBlock.
template <class Access>
void ScanIdsAndKeys(approx::ApproxArrayU32& id, approx::ApproxArrayU32& key0,
                    size_t n, uint32_t* ids, uint32_t* current) {
  uint32_t index[Access::kScanBlock];
  for (size_t start = 0; start < n; start += Access::kScanBlock) {
    const size_t m = std::min(Access::kScanBlock, n - start);
    id.GetRange(start, ids + start, m);
    for (size_t k = 0; k < m; ++k) index[k] = ClampId(ids[start + k], n);
    key0.GetIndexed(index, current + start, m);
  }
}

// Step 2's key column: RemKeys[j] = Key0[REMID[j]].
template <class Access>
void FillRemKeys(approx::ApproxArrayU32& key0_array,
                 approx::ApproxArrayU32& remid_array,
                 approx::ApproxArrayU32& rem_keys_array, size_t n) {
  typename Access::Array key0(key0_array);
  typename Access::Array remid(remid_array);
  typename Access::Array rem_keys(rem_keys_array);
  for (size_t j = 0; j < remid_array.size(); ++j) {
    rem_keys.Write(j, key0.Read(ClampId(remid.Read(j), n)));
  }
  key0.Close();
  remid.Close();
  rem_keys.Close();
}

// Membership in REMID: one flag per id in [0, n); ids past n come only
// from a corrupted ID column and go in a side set.
class RemidSet {
 public:
  RemidSet(const std::vector<uint32_t>& rem_ids, size_t n)
      : in_range_(n, 0) {
    for (const uint32_t rem_id : rem_ids) {
      if (rem_id < n) {
        in_range_[rem_id] = 1;
      } else {
        out_of_range_.insert(rem_id);
      }
    }
  }
  bool contains(uint32_t rem_id) const {
    return rem_id < in_range_.size() ? in_range_[rem_id] != 0
                                     : out_of_range_.count(rem_id) != 0;
  }

 private:
  std::vector<uint8_t> in_range_;
  std::unordered_set<uint32_t> out_of_range_;
};

// Step 3 (Listing 2): merges the approximate LIS (re-scanned from ID,
// skipping REMID members) with the sorted REMID into finalID/finalKey.
// `ids` and `current` are the scan's reads of ID and Key0. The merge emits
// exactly n elements when ID is the permutation the approx stage is
// contracted to preserve. A corrupted ID column (e.g. faults injected into
// precise memory) can make it emit more or fewer; the writes are clamped
// and false is returned, so verification fails instead of the process
// aborting and a fault-injection harness can observe the failure.
template <class Access>
bool MergeLisWithRemid(approx::ApproxArrayU32& key0_array,
                       approx::ApproxArrayU32& id_array,
                       approx::ApproxArrayU32& remid_array,
                       approx::ApproxArrayU32& final_key_array,
                       approx::ApproxArrayU32& final_id_array,
                       const RemidSet& remid_set, const uint32_t* ids,
                       const uint32_t* current) {
  typename Access::Array key0(key0_array);
  typename Access::Array id(id_array);
  typename Access::Array remid(remid_array);
  typename Access::Array final_key(final_key_array);
  typename Access::Array final_id(final_id_array);
  const size_t n = id_array.size();
  const size_t rem = remid_array.size();
  bool merge_conserved = true;
  size_t lis_ptr = 0;
  size_t rem_ptr = 0;
  size_t final_ptr = 0;
  while (lis_ptr < n) {
    // Find the next element of the approximate LIS.
    uint32_t lis_id = 0;
    bool have_lis = false;
    while (lis_ptr < n) {
      lis_id = id.Reread(lis_ptr, ids[lis_ptr]);
      if (!remid_set.contains(lis_id)) {
        have_lis = true;
        break;
      }
      ++lis_ptr;
    }
    if (!have_lis) break;
    const uint32_t lis_key = key0.Reread(ClampId(lis_id, n), current[lis_ptr]);
    // Merge: emit REMID entries smaller than the LIS head first.
    while (rem_ptr < rem && final_ptr < n) {
      const uint32_t rem_id = remid.Read(rem_ptr);
      const uint32_t rem_key = key0.Read(ClampId(rem_id, n));
      if (rem_key >= lis_key) break;
      final_id.Write(final_ptr, rem_id);
      final_key.Write(final_ptr, rem_key);
      ++final_ptr;
      ++rem_ptr;
    }
    if (final_ptr >= n) {
      merge_conserved = false;
      break;
    }
    final_id.Write(final_ptr, lis_id);
    final_key.Write(final_ptr, lis_key);
    ++final_ptr;
    ++lis_ptr;
  }
  while (rem_ptr < rem && final_ptr < n) {
    const uint32_t rem_id = remid.Read(rem_ptr);
    final_id.Write(final_ptr, rem_id);
    final_key.Write(final_ptr, key0.Read(ClampId(rem_id, n)));
    ++final_ptr;
    ++rem_ptr;
  }
  if (final_ptr != n || rem_ptr != rem) merge_conserved = false;
  key0.Close();
  id.Close();
  remid.Close();
  final_key.Close();
  final_id.Close();
  return merge_conserved;
}

// The serial check: counts every violation and locates the first.
VerificationReport VerifySerially(const std::vector<uint32_t>& input_keys,
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

// True when a conserved output of n elements passes every check, tested
// in stripes on `pool`: order, id range and key match per element, and
// duplicate ids through one bitmap per stripe, then across the bitmaps
// (n in-range ids with no duplicate are a permutation). Says nothing
// about where an anomaly is.
bool CleanOnPool(const std::vector<uint32_t>& input_keys,
                 const std::vector<uint32_t>& out_keys,
                 const std::vector<uint32_t>& out_ids, ThreadPool& pool) {
  const size_t n = input_keys.size();
  const size_t stripes = static_cast<size_t>(pool.thread_count());
  const size_t words = (n + 63) / 64;
  std::vector<uint64_t> seen(stripes * words, 0);
  std::vector<uint8_t> clean(stripes, 1);
  pool.ParallelFor(0, stripes, [&](size_t s) {
    uint64_t* mine = seen.data() + s * words;
    const size_t end = (s + 1) * n / stripes;
    for (size_t i = s * n / stripes; i < end; ++i) {
      const uint32_t rid = out_ids[i];
      const uint64_t bit = uint64_t{1} << (rid % 64);
      if (rid >= n || out_keys[i] != input_keys[rid] ||
          (i > 0 && out_keys[i - 1] > out_keys[i]) ||
          (mine[rid / 64] & bit) != 0) {
        clean[s] = 0;
        return;
      }
      mine[rid / 64] |= bit;
    }
  });
  if (std::find(clean.begin(), clean.end(), 0) != clean.end()) return false;
  pool.ParallelFor(0, stripes, [&](size_t s) {
    const size_t end = (s + 1) * words / stripes;
    for (size_t w = s * words / stripes; w < end; ++w) {
      uint64_t any = 0;
      for (size_t t = 0; t < stripes; ++t) {
        const uint64_t bits = seen[t * words + w];
        if ((any & bits) != 0) {
          clean[s] = 0;
          return;
        }
        any |= bits;
      }
    }
  });
  return std::find(clean.begin(), clean.end(), 0) == clean.end();
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
                                      bool merge_conserved, ThreadPool* pool) {
  const size_t n = input_keys.size();
  // A clean output reports no violation; anything else is located and
  // counted by the serial check.
  if (pool != nullptr && pool->thread_count() > 1 && merge_conserved &&
      out_keys.size() == n && out_ids.size() == n &&
      CleanOnPool(input_keys, out_keys, out_ids, *pool)) {
    return VerificationReport{};
  }
  return VerifySerially(input_keys, out_keys, out_ids, merge_conserved);
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

  // ---- Approx preparation: copy Key0 into the approximate domain. The
  // copy stays serial: its approximate writes consume Key~'s one RNG
  // stream in element order, so it cannot be split. (A caller's precise
  // Eq. 2 baseline stays after the refine stage, not beside it: each
  // allocation splits a stream off the memory's RNG, and running the two
  // side by side would reorder those splits.)
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
    report.approx_sortedness =
        sortedness::Measure(key_approx, options.tuning.pool);
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
  // once and Key0 once per element (Listing 1's single pass). Each step
  // counts its reads when every array it touches is plain (see
  // CountedAccess), and issues them one by one otherwise.
  std::vector<uint32_t> ids(n);
  std::vector<uint32_t> current(n);
  if (AllPlain({&key0, &id})) {
    ScanIdsAndKeys<CountedAccess>(id, key0, n, ids.data(), current.data());
  } else {
    ScanIdsAndKeys<DirectAccess>(id, key0, n, ids.data(), current.data());
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
  if (AllPlain({&key0, &remid, &rem_keys})) {
    FillRemKeys<CountedAccess>(key0, remid, rem_keys, n);
  } else {
    FillRemKeys<DirectAccess>(key0, remid, rem_keys, n);
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

  // ---- Refine stage, step 3 (Listing 2): merge the approximate LIS with
  // the sorted REMID. Materializing REMIDset costs Rem~ writes, as in the
  // listing; the host keeps its membership flags.
  const RemidSet remid_set(rem_ids, n);
  approx::ApproxArrayU32 remid_set_storage = options.precise_alloc(rem);
  remid_set_storage.Store(rem_ids);

  approx::ApproxArrayU32 final_key_array = options.precise_alloc(n);
  approx::ApproxArrayU32 final_id_array = options.precise_alloc(n);
  const bool merge_conserved =
      AllPlain({&key0, &id, &remid, &final_key_array, &final_id_array})
          ? MergeLisWithRemid<CountedAccess>(key0, id, remid, final_key_array,
                                             final_id_array, remid_set,
                                             ids.data(), current.data())
          : MergeLisWithRemid<DirectAccess>(key0, id, remid, final_key_array,
                                            final_id_array, remid_set,
                                            ids.data(), current.data());

  // ---- Verification: exactly sorted, consistent, and a permutation.
  {
    std::vector<uint32_t> out_keys = final_key_array.Snapshot();
    std::vector<uint32_t> out_ids = final_id_array.Snapshot();
    report->verification =
        VerifyRefineOutput(state.input_keys, out_keys, out_ids,
                           merge_conserved, options.tuning.pool);
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
