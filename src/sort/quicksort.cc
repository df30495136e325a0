#include "sort/quicksort.h"

#include <algorithm>
#include <utility>
#include <vector>

namespace approxmem::sort {
namespace {

// Partitions at or below this size finish with insertion sort.
constexpr size_t kInsertionCutoff = 16;

// Hoare partition of [lo, hi] around a random pivot value; returns a split
// point in [lo, hi-1] such that, absent corruption, [lo, split] <= pivot <=
// [split+1, hi].
//
// On approximate memory a swap can corrupt the values it just wrote, which
// destroys the sentinel invariants the textbook scans rely on. The scans are
// therefore explicitly bounds-guarded and the split is clamped so both
// subranges shrink: under corruption the partition may be imperfect (that is
// the phenomenon under study), but the sort always terminates in bounds.
size_t HoarePartition(SortSpec& spec, size_t lo, size_t hi, Rng& rng) {
  approx::ApproxArrayU32& keys = *spec.keys;
  const size_t pivot_index = lo + rng.UniformInt(hi - lo + 1);
  const uint32_t pivot = keys.Get(pivot_index);
  size_t i = lo;
  size_t j = hi;
  while (true) {
    while (i < hi && keys.Get(i) < pivot) ++i;
    while (j > lo && keys.Get(j) > pivot) --j;
    if (i >= j) break;
    SwapElements(spec, i, j);
    ++i;
    --j;
    if (i > j) break;
  }
  return std::min(j, hi - 1);
}

}  // namespace

void InsertionSortRange(SortSpec& spec, size_t lo, size_t hi) {
  approx::ApproxArrayU32& keys = *spec.keys;
  approx::ApproxArrayU32* ids = spec.ids;
  for (size_t i = lo + 1; i <= hi; ++i) {
    const uint32_t key = keys.Get(i);
    const uint32_t id = ids != nullptr ? ids->Get(i) : 0;
    size_t j = i;
    while (j > lo && keys.Get(j - 1) > key) {
      keys.Set(j, keys.Get(j - 1));
      if (ids != nullptr) ids->Set(j, ids->Get(j - 1));
      --j;
    }
    if (j != i) {
      keys.Set(j, key);
      if (ids != nullptr) ids->Set(j, id);
    }
  }
}

Status Quicksort(SortSpec& spec, Rng& rng) {
  Status status = ValidateSpec(spec, /*needs_buffers=*/false);
  if (!status.ok()) return status;
  const size_t n = spec.keys->size();
  if (n < 2) return Status::Ok();

  // Explicit stack; deferring the larger half bounds the stack depth.
  std::vector<std::pair<size_t, size_t>> stack;
  stack.emplace_back(0, n - 1);
  while (!stack.empty()) {
    auto [lo, hi] = stack.back();
    stack.pop_back();
    while (hi > lo && hi - lo + 1 > kInsertionCutoff) {
      const size_t split = HoarePartition(spec, lo, hi, rng);
      // split is in [lo, hi-1], so both halves are non-empty.
      if (split - lo < hi - split - 1) {
        stack.emplace_back(split + 1, hi);
        hi = split;
      } else {
        stack.emplace_back(lo, split);
        lo = split + 1;
      }
    }
    if (hi > lo) InsertionSortRange(spec, lo, hi);
  }
  return Status::Ok();
}

}  // namespace approxmem::sort
