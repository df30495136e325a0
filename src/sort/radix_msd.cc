#include "sort/radix_msd.h"

#include <utility>
#include <vector>

#include "sort/quicksort.h"
#include "sort/radix_common.h"

namespace approxmem::sort {
namespace {

// Buckets at or below this size finish with insertion sort.
constexpr size_t kInsertionCutoff = 32;

struct Segment {
  size_t lo;
  size_t hi;  // Exclusive.
  int shift;  // Right-shift of the digit to partition by; < 0 means done.
};

}  // namespace

Status MsdRadixSort(SortSpec& spec, int bits) {
  Status status = ValidateSpec(spec, /*needs_buffers=*/true);
  if (!status.ok()) return status;
  if (bits < 1 || bits > 16) {
    return Status::InvalidArgument("MSD radix bits must be in [1, 16]");
  }
  const size_t n = spec.keys->size();
  if (n < 2) return Status::Ok();

  const RadixPlan plan = RadixPlan::ForBits(bits);
  approx::ApproxArrayU32 key_arena = spec.alloc_key_buffer(n);
  approx::ApproxArrayU32 id_arena_storage =
      spec.ids != nullptr ? spec.alloc_id_buffer(n)
                          : approx::ApproxArrayU32(0, nullptr, Rng(0));
  approx::ApproxArrayU32* id_arena =
      spec.ids != nullptr ? &id_arena_storage : nullptr;

  std::vector<Segment> stack;
  stack.push_back(Segment{0, n, plan.TopShift()});

  while (!stack.empty()) {
    const Segment seg = stack.back();
    stack.pop_back();
    const size_t len = seg.hi - seg.lo;
    if (len < 2) continue;
    if (len <= kInsertionCutoff || seg.shift < 0) {
      InsertionSortRange(spec, seg.lo, seg.hi - 1);
      continue;
    }

    // Partition [lo, hi) by the digit at seg.shift through bucket queues
    // backed by the arena region [lo, hi).
    BucketQueues queues(plan.buckets, &key_arena, id_arena, seg.lo);
    for (size_t i = seg.lo; i < seg.hi; ++i) {
      const uint32_t key = spec.keys->Get(i);
      const uint32_t id = spec.ids != nullptr ? spec.ids->Get(i) : 0;
      queues.Push((key >> seg.shift) & plan.mask, key, id);
    }
    queues.DrainTo(*spec.keys, spec.ids, seg.lo);

    size_t offset = seg.lo;
    for (uint32_t b = 0; b < plan.buckets; ++b) {
      const size_t size = queues.BucketSize(b);
      if (size > 1) {
        stack.push_back(Segment{offset, offset + size,
                                seg.shift - plan.bits});
      }
      offset += size;
    }
  }
  return Status::Ok();
}

}  // namespace approxmem::sort
