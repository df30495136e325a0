#include "sort/mergesort.h"

#include <algorithm>

namespace approxmem::sort {
namespace {

// One element move from (src_keys, src_ids)[from] to (dst_keys, dst_ids)[to].
inline void MoveElement(approx::ApproxArrayU32& src_keys,
                        approx::ApproxArrayU32* src_ids,
                        approx::ApproxArrayU32& dst_keys,
                        approx::ApproxArrayU32* dst_ids, size_t from,
                        size_t to) {
  dst_keys.Set(to, src_keys.Get(from));
  if (src_ids != nullptr) dst_ids->Set(to, src_ids->Get(from));
}

// Merges src[lo, mid) and src[mid, hi) into dst[lo, hi).
void MergeRuns(approx::ApproxArrayU32& src_keys,
               approx::ApproxArrayU32* src_ids,
               approx::ApproxArrayU32& dst_keys,
               approx::ApproxArrayU32* dst_ids, size_t lo, size_t mid,
               size_t hi) {
  size_t left = lo;
  size_t right = mid;
  for (size_t out = lo; out < hi; ++out) {
    const bool take_left =
        left < mid &&
        (right >= hi || src_keys.Get(left) <= src_keys.Get(right));
    const size_t from = take_left ? left++ : right++;
    MoveElement(src_keys, src_ids, dst_keys, dst_ids, from, out);
  }
}

}  // namespace

Status Mergesort(SortSpec& spec) {
  Status status = ValidateSpec(spec, /*needs_buffers=*/true);
  if (!status.ok()) return status;
  const size_t n = spec.keys->size();
  if (n < 2) return Status::Ok();

  approx::ApproxArrayU32 scratch_keys = spec.alloc_key_buffer(n);
  approx::ApproxArrayU32 scratch_ids_storage =
      spec.ids != nullptr ? spec.alloc_id_buffer(n)
                          : approx::ApproxArrayU32(0, nullptr, Rng(0));
  approx::ApproxArrayU32* scratch_ids =
      spec.ids != nullptr ? &scratch_ids_storage : nullptr;

  approx::ApproxArrayU32* src_keys = spec.keys;
  approx::ApproxArrayU32* dst_keys = &scratch_keys;
  approx::ApproxArrayU32* src_ids = spec.ids;
  approx::ApproxArrayU32* dst_ids = scratch_ids;

  for (size_t run = 1; run < n; run *= 2) {
    for (size_t lo = 0; lo < n; lo += 2 * run) {
      const size_t mid = std::min(lo + run, n);
      const size_t hi = std::min(lo + 2 * run, n);
      MergeRuns(*src_keys, src_ids, *dst_keys, dst_ids, lo, mid, hi);
    }
    std::swap(src_keys, dst_keys);
    std::swap(src_ids, dst_ids);
  }

  // After an odd number of passes the sorted data sits in the scratch
  // buffers; copy it back (counted writes, as a real implementation would).
  if (src_keys != spec.keys) {
    for (size_t i = 0; i < n; ++i) {
      MoveElement(*src_keys, src_ids, *spec.keys, spec.ids, i, i);
    }
  }
  return Status::Ok();
}

}  // namespace approxmem::sort
