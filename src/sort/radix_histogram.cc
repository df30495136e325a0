#include "sort/radix_histogram.h"

#include <algorithm>
#include <utility>
#include <vector>

#include "common/check.h"
#include "common/thread_pool.h"
#include "sort/quicksort.h"
#include "sort/radix_common.h"

namespace approxmem::sort {
namespace {

// MSD buckets at or below this size finish with insertion sort.
constexpr size_t kInsertionCutoff = 32;

struct Buffers {
  approx::ApproxArrayU32* keys;
  approx::ApproxArrayU32* ids;  // Null when ids are not tracked.
};

// Copies [lo, hi) from src to dst (read + write per element).
void CopyRange(const Buffers& src, const Buffers& dst, size_t lo, size_t hi) {
  for (size_t i = lo; i < hi; ++i) {
    dst.keys->Set(i, src.keys->Get(i));
    if (src.ids != nullptr) dst.ids->Set(i, src.ids->Get(i));
  }
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
// start offsets come from `counts` (exclusive prefix sums built here).
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
             const std::vector<size_t>& counts,
             std::vector<size_t>* bucket_starts) {
  std::vector<size_t> cursor(plan.buckets);
  size_t offset = lo;
  for (uint32_t b = 0; b < plan.buckets; ++b) {
    cursor[b] = offset;
    if (bucket_starts != nullptr) (*bucket_starts)[b] = offset;
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

}  // namespace

Status LsdHistogramSort(SortSpec& spec, int bits) {
  Status status = ValidateSpec(spec, /*needs_buffers=*/true);
  if (!status.ok()) return status;
  if (bits < 1 || bits > 16) {
    return Status::InvalidArgument("radix bits must be in [1, 16]");
  }
  const size_t n = spec.keys->size();
  if (n < 2) return Status::Ok();

  const RadixPlan plan = RadixPlan::ForBits(bits);
  const StripePlan stripes = StripePlan::ForN(n);
  const size_t num_stripes = stripes.count;
  const uint32_t buckets = plan.buckets;
  const bool with_ids = spec.ids != nullptr;

  approx::ApproxArrayU32 scratch_keys = spec.alloc_key_buffer(n);
  approx::ApproxArrayU32 scratch_ids_storage =
      with_ids ? spec.alloc_id_buffer(n)
               : approx::ApproxArrayU32(0, nullptr, Rng(0));
  Buffers primary{spec.keys, spec.ids};
  Buffers scratch{&scratch_keys, with_ids ? &scratch_ids_storage : nullptr};

  ThreadPool* pool = spec.tuning.pool;
  const bool concurrent =
      pool != nullptr && pool->thread_count() > 1 && num_stripes > 1 &&
      spec.keys->ConcurrentShardSafe() && scratch_keys.ConcurrentShardSafe() &&
      (!with_ids || (spec.ids->ConcurrentShardSafe() &&
                     scratch_ids_storage.ConcurrentShardSafe()));

  // DRAM-side stash, histograms, and windows (histogram bookkeeping, not
  // simulated accesses).
  std::vector<uint32_t> stash_keys(n);
  std::vector<uint32_t> stash_ids(with_ids ? n : 0);
  std::vector<size_t> hist(num_stripes * buckets);
  std::vector<size_t> window(num_stripes * buckets);

  Buffers src = primary;
  Buffers dst = scratch;
  for (int pass = 0; pass < plan.passes; ++pass) {
    const int shift = plan.bits * pass;
    std::fill(hist.begin(), hist.end(), 0);

    auto src_key_shards = src.keys->MakeShards(num_stripes);
    auto dst_key_shards = dst.keys->MakeShards(num_stripes);
    auto src_id_shards = with_ids
                             ? src.ids->MakeShards(num_stripes)
                             : std::vector<approx::ApproxArrayU32::Shard>{};
    auto dst_id_shards = with_ids
                             ? dst.ids->MakeShards(num_stripes)
                             : std::vector<approx::ApproxArrayU32::Shard>{};

    // Count + stash: one read per array element; the digit used below is
    // fixed by this read, so the scatter cannot diverge from the counts.
    RunStripes(pool, concurrent, num_stripes, [&](size_t s) {
      // Counted in a row of the stripe's own: neighbouring stripes' rows
      // of `hist` share cache lines.
      std::vector<size_t> h(buckets);
      constexpr size_t kBlock = 64;
      for (size_t i = stripes.Begin(s), end = stripes.End(s); i < end;) {
        const size_t m = std::min(kBlock, end - i);
        src_key_shards[s].GatherPaired(i, &stash_keys[i],
                                       with_ids ? &src_id_shards[s] : nullptr,
                                       with_ids ? &stash_ids[i] : nullptr, m);
        for (size_t k = i; k < i + m; ++k) {
          ++h[(stash_keys[k] >> shift) & plan.mask];
        }
        i += m;
      }
      std::copy(h.begin(), h.end(), hist.begin() + s * buckets);
    });

    // Bucket-major prefix sum into disjoint per-(bucket, stripe) windows.
    size_t total = 0;
    for (uint32_t b = 0; b < buckets; ++b) {
      for (size_t s = 0; s < num_stripes; ++s) {
        window[b * num_stripes + s] = total;
        total += hist[s * buckets + b];
      }
    }
    APPROXMEM_CHECK(total == n);

    // Scatter straight to the final slot: exactly one write per element.
    RunStripes(pool, concurrent, num_stripes, [&](size_t s) {
      std::vector<size_t> cursors(buckets);
      for (uint32_t b = 0; b < buckets; ++b) {
        cursors[b] = window[b * num_stripes + s];
      }
      ScatterBuffer out(&dst_key_shards[s],
                        with_ids ? &dst_id_shards[s] : nullptr);
      for (size_t i = stripes.Begin(s), end = stripes.End(s); i < end; ++i) {
        const uint32_t digit = (stash_keys[i] >> shift) & plan.mask;
        out.Push(cursors[digit]++, stash_keys[i], with_ids ? stash_ids[i] : 0);
      }
      out.Flush();
    });

    src.keys->MergeShards(src_key_shards);
    dst.keys->MergeShards(dst_key_shards);
    if (with_ids) {
      src.ids->MergeShards(src_id_shards);
      dst.ids->MergeShards(dst_id_shards);
    }
    std::swap(src, dst);
  }

  if (src.keys != primary.keys) {
    // Odd pass count: parity copy back, contiguous blocks per stripe.
    auto src_key_shards = src.keys->MakeShards(num_stripes);
    auto dst_key_shards = primary.keys->MakeShards(num_stripes);
    auto src_id_shards = with_ids
                             ? src.ids->MakeShards(num_stripes)
                             : std::vector<approx::ApproxArrayU32::Shard>{};
    auto dst_id_shards = with_ids
                             ? primary.ids->MakeShards(num_stripes)
                             : std::vector<approx::ApproxArrayU32::Shard>{};
    RunStripes(pool, concurrent, num_stripes, [&](size_t s) {
      constexpr size_t kBlock = 64;
      uint32_t buf[kBlock];
      for (size_t i = stripes.Begin(s), end = stripes.End(s); i < end;) {
        const size_t m = std::min(kBlock, end - i);
        src_key_shards[s].GetRange(i, buf, m);
        dst_key_shards[s].SetRange(i, buf, m);
        if (with_ids) {
          src_id_shards[s].GetRange(i, buf, m);
          dst_id_shards[s].SetRange(i, buf, m);
        }
        i += m;
      }
    });
    src.keys->MergeShards(src_key_shards);
    primary.keys->MergeShards(dst_key_shards);
    if (with_ids) {
      src.ids->MergeShards(src_id_shards);
      primary.ids->MergeShards(dst_id_shards);
    }
  }
  return Status::Ok();
}

Status MsdHistogramSort(SortSpec& spec, int bits) {
  Status status = ValidateSpec(spec, /*needs_buffers=*/true);
  if (!status.ok()) return status;
  if (bits < 1 || bits > 16) {
    return Status::InvalidArgument("radix bits must be in [1, 16]");
  }
  const size_t n = spec.keys->size();
  if (n < 2) return Status::Ok();

  const RadixPlan plan = RadixPlan::ForBits(bits);
  approx::ApproxArrayU32 scratch_keys = spec.alloc_key_buffer(n);
  approx::ApproxArrayU32 scratch_ids_storage =
      spec.ids != nullptr ? spec.alloc_id_buffer(n)
                          : approx::ApproxArrayU32(0, nullptr, Rng(0));
  Buffers primary{spec.keys, spec.ids};
  Buffers scratch{&scratch_keys,
                  spec.ids != nullptr ? &scratch_ids_storage : nullptr};

  struct Segment {
    size_t lo;
    size_t hi;     // Exclusive.
    int shift;     // < 0 means digits exhausted.
    bool in_primary;  // Which buffer currently holds the segment.
  };
  std::vector<Segment> stack;
  stack.push_back(Segment{0, n, plan.TopShift(), true});

  while (!stack.empty()) {
    const Segment seg = stack.back();
    stack.pop_back();
    const size_t len = seg.hi - seg.lo;
    if (len == 0) continue;
    const Buffers src = seg.in_primary ? primary : scratch;
    const Buffers dst = seg.in_primary ? scratch : primary;

    if (len < 2 || len <= kInsertionCutoff || seg.shift < 0) {
      // Leaf: make sure the data is back in the primary buffer, then finish
      // with insertion sort (through the instrumented primary arrays).
      if (!seg.in_primary) CopyRange(src, primary, seg.lo, seg.hi);
      if (len >= 2) InsertionSortRange(spec, seg.lo, seg.hi - 1);
      continue;
    }

    const std::vector<size_t> counts =
        CountDigits(src, seg.lo, seg.hi, seg.shift, plan);
    std::vector<size_t> starts(plan.buckets);
    Scatter(src, dst, seg.lo, seg.hi, seg.shift, plan, counts, &starts);
    for (uint32_t b = 0; b < plan.buckets; ++b) {
      const size_t bucket_lo = starts[b];
      const size_t bucket_hi = bucket_lo + counts[b];
      stack.push_back(Segment{bucket_lo, bucket_hi, seg.shift - plan.bits,
                              !seg.in_primary});
    }
  }
  return Status::Ok();
}

}  // namespace approxmem::sort
