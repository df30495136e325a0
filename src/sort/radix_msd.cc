#include "sort/radix_msd.h"

#include <utility>
#include <vector>

#include "sort/quicksort.h"
#include "sort/radix_common.h"

namespace approxmem::sort {
namespace {

using approx::ApproxArrayU32;

// Segments at or below this size finish with insertion sort.
constexpr size_t kInsertionCutoff = 32;

// How a segment is split into its buckets.
enum class Partition {
  kQueues,     // Section 3.1: through bucket queues and back.
  kHistogram,  // Appendix B: count, then scatter into the other buffer.
};

struct Buffers {
  ApproxArrayU32* keys;
  ApproxArrayU32* ids;  // Null when ids are not tracked.
};

struct Segment {
  size_t lo;
  size_t hi;        // Exclusive.
  int shift;        // Right-shift of the digit to partition by; < 0: done.
  bool in_primary;  // Which buffer currently holds the segment.
};

// Copies [lo, hi) from src to dst (read + write per element).
void CopyRange(const Buffers& src, const Buffers& dst, size_t lo, size_t hi) {
  for (size_t i = lo; i < hi; ++i) {
    dst.keys->Set(i, src.keys->Get(i));
    if (src.ids != nullptr) dst.ids->Set(i, src.ids->Get(i));
  }
}

// Pushes src[lo, hi) into bucket queues backed by arena[lo, hi) and drains
// them back into src, so the segment stays where it was. Returns the
// bucket sizes.
std::vector<size_t> QueuePartition(const Buffers& src, const Buffers& arena,
                                   const Segment& seg, const RadixPlan& plan) {
  BucketQueues queues(plan.buckets, arena.keys, arena.ids, seg.lo);
  for (size_t i = seg.lo; i < seg.hi; ++i) {
    const uint32_t key = src.keys->Get(i);
    const uint32_t id = src.ids != nullptr ? src.ids->Get(i) : 0;
    queues.Push((key >> seg.shift) & plan.mask, key, id);
  }
  queues.DrainTo(*src.keys, src.ids, seg.lo);
  std::vector<size_t> counts(plan.buckets);
  for (uint32_t b = 0; b < plan.buckets; ++b) counts[b] = queues.BucketSize(b);
  return counts;
}

// Counts digit occurrences of src[lo, hi) at `shift` (reads only).
std::vector<size_t> CountDigits(const Buffers& src, size_t lo, size_t hi,
                                int shift, const RadixPlan& plan) {
  std::vector<size_t> counts(plan.buckets, 0);
  for (size_t i = lo; i < hi; ++i) {
    ++counts[(src.keys->Get(i) >> shift) & plan.mask];
  }
  return counts;
}

// Scatters src[lo, hi) into dst by digit; one write per element. Bucket
// start offsets are the exclusive prefix sums of `counts`.
//
// Because an element's observed digit can change between the counting read
// and the scatter read (read disturbance / injected transient faults), a
// cursor can run past its bucket into slots that another cursor also
// claims. A collision must not drop the element: keys and IDs move
// together, and a lost or doubled ID breaks the permutation contract the
// refine stage depends on. Colliding elements are diverted to the slots
// left unclaimed at the end of the pass, so the scatter is a permutation
// of [lo, hi) under any corruption. Fault-free passes never divert, and
// read/write counts are identical either way.
void Scatter(const Buffers& src, const Buffers& dst, size_t lo, size_t hi,
             int shift, const RadixPlan& plan,
             const std::vector<size_t>& counts) {
  std::vector<size_t> cursor(plan.buckets);
  size_t offset = lo;
  for (uint32_t b = 0; b < plan.buckets; ++b) {
    cursor[b] = offset;
    offset += counts[b];
  }
  std::vector<bool> claimed(hi - lo, false);
  std::vector<std::pair<uint32_t, uint32_t>> diverted;  // (key, id value)
  for (size_t i = lo; i < hi; ++i) {
    const uint32_t key = src.keys->Get(i);
    const uint32_t digit = (key >> shift) & plan.mask;
    const size_t pos = cursor[digit]++;
    if (pos >= hi || claimed[pos - lo]) {
      diverted.emplace_back(key,
                            src.ids != nullptr ? src.ids->Get(i) : 0u);
      continue;
    }
    claimed[pos - lo] = true;
    dst.keys->Set(pos, key);
    if (src.ids != nullptr) dst.ids->Set(pos, src.ids->Get(i));
  }
  size_t slot = lo;
  for (const auto& [key, id_value] : diverted) {
    while (claimed[slot - lo]) ++slot;
    claimed[slot - lo] = true;
    dst.keys->Set(slot, key);
    if (src.ids != nullptr) dst.ids->Set(slot, id_value);
  }
}

Status MsdSort(SortSpec& spec, int bits, Partition partition) {
  Status status = ValidateSpec(spec, /*needs_buffers=*/true);
  if (!status.ok()) return status;
  if (bits < 1 || bits > 16) {
    return Status::InvalidArgument("MSD radix bits must be in [1, 16]");
  }
  const size_t n = spec.keys->size();
  if (n < 2) return Status::Ok();

  const RadixPlan plan = RadixPlan::ForBits(bits);
  ApproxArrayU32 scratch_keys = spec.alloc_key_buffer(n);
  ApproxArrayU32 scratch_ids = spec.ids != nullptr
                                   ? spec.alloc_id_buffer(n)
                                   : ApproxArrayU32(0, nullptr, Rng(0));
  const Buffers primary{spec.keys, spec.ids};
  const Buffers scratch{&scratch_keys,
                        spec.ids != nullptr ? &scratch_ids : nullptr};

  std::vector<Segment> stack;
  stack.push_back(Segment{0, n, plan.TopShift(), true});
  while (!stack.empty()) {
    const Segment seg = stack.back();
    stack.pop_back();
    const size_t len = seg.hi - seg.lo;
    if (len <= kInsertionCutoff || seg.shift < 0) {
      // Leaf: make sure the data is back in the primary buffer, then finish
      // with insertion sort (through the instrumented primary arrays).
      if (!seg.in_primary) CopyRange(scratch, primary, seg.lo, seg.hi);
      if (len >= 2) InsertionSortRange(spec, seg.lo, seg.hi - 1);
      continue;
    }

    const Buffers& src = seg.in_primary ? primary : scratch;
    const Buffers& other = seg.in_primary ? scratch : primary;
    std::vector<size_t> counts;
    bool buckets_in_primary = seg.in_primary;
    if (partition == Partition::kQueues) {
      counts = QueuePartition(src, other, seg, plan);
    } else {
      counts = CountDigits(src, seg.lo, seg.hi, seg.shift, plan);
      Scatter(src, other, seg.lo, seg.hi, seg.shift, plan, counts);
      buckets_in_primary = !seg.in_primary;
    }
    // A bucket with nothing to sort or copy back is not pushed at all.
    size_t offset = seg.lo;
    for (uint32_t b = 0; b < plan.buckets; ++b) {
      const size_t size = counts[b];
      if (size > 1 || (size == 1 && !buckets_in_primary)) {
        stack.push_back(Segment{offset, offset + size, seg.shift - plan.bits,
                                buckets_in_primary});
      }
      offset += size;
    }
  }
  return Status::Ok();
}

}  // namespace

Status MsdRadixSort(SortSpec& spec, int bits) {
  return MsdSort(spec, bits, Partition::kQueues);
}

Status MsdHistogramSort(SortSpec& spec, int bits) {
  return MsdSort(spec, bits, Partition::kHistogram);
}

}  // namespace approxmem::sort
