#include "sort/radix_lsd.h"

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/check.h"
#include "common/thread_pool.h"
#include "sort/radix_common.h"

namespace approxmem::sort {
namespace {

using approx::ApproxArrayU32;
using Shards = std::vector<ApproxArrayU32::Shard>;

// Where a pass leaves its output.
enum class PassOutput {
  kDrainBack,  // Queue buckets: the scratch windows drain back to the input.
  kSwap,       // Histogram: the scratch becomes the next pass's input.
};

struct Buffers {
  ApproxArrayU32* keys;
  ApproxArrayU32* ids;  // Null when ids are not tracked.
};

// One pass's shards: one RNG substream per stripe per array, split in the
// order src keys, dst keys, src ids, dst ids, so the draw sequence is fixed
// by the plan, not the schedule. The id shard lists are empty without ids.
struct PassShards {
  PassShards(const Buffers& src, const Buffers& dst, size_t count)
      : src_keys(src.keys->MakeShards(count)),
        dst_keys(dst.keys->MakeShards(count)),
        src_ids(src.ids != nullptr ? src.ids->MakeShards(count) : Shards{}),
        dst_ids(dst.ids != nullptr ? dst.ids->MakeShards(count) : Shards{}) {}

  void MergeInto(const Buffers& src, const Buffers& dst) {
    src.keys->MergeShards(src_keys);
    dst.keys->MergeShards(dst_keys);
    if (src.ids != nullptr) {
      src.ids->MergeShards(src_ids);
      dst.ids->MergeShards(dst_ids);
    }
  }

  Shards src_keys;
  Shards dst_keys;
  Shards src_ids;
  Shards dst_ids;
};

ApproxArrayU32::Shard* ShardOrNull(Shards& shards, size_t s) {
  return shards.empty() ? nullptr : &shards[s];
}

// Copies every stripe of `from` to the same range of `to` in contiguous
// blocks, key block then id block: one read and one write per array per
// element. Corrupted source values propagate, as a queue drain would.
void CopyStripes(ThreadPool* pool, bool concurrent, const StripePlan& stripes,
                 Shards& from_keys, Shards& from_ids, Shards& to_keys,
                 Shards& to_ids) {
  RunStripes(pool, concurrent, stripes.count, [&](size_t s) {
    constexpr size_t kBlock = 64;
    uint32_t buf[kBlock];
    for (size_t i = stripes.Begin(s), end = stripes.End(s); i < end;) {
      const size_t m = std::min(kBlock, end - i);
      from_keys[s].GetRange(i, buf, m);
      to_keys[s].SetRange(i, buf, m);
      if (!from_ids.empty()) {
        from_ids[s].GetRange(i, buf, m);
        to_ids[s].SetRange(i, buf, m);
      }
      i += m;
    }
  });
}

Status StripedLsdSort(SortSpec& spec, int bits, PassOutput output) {
  Status status = ValidateSpec(spec, /*needs_buffers=*/true);
  if (!status.ok()) return status;
  if (bits < 1 || bits > 16) {
    return Status::InvalidArgument("LSD radix bits must be in [1, 16]");
  }
  const size_t n = spec.keys->size();
  if (n < 2) return Status::Ok();

  const RadixPlan plan = RadixPlan::ForBits(bits);
  const StripePlan stripes = StripePlan::ForN(n);
  const size_t num_stripes = stripes.count;
  const uint32_t buckets = plan.buckets;
  const bool with_ids = spec.ids != nullptr;

  // The scatter windows tile [0, n) exactly, so each scratch array holds n.
  ApproxArrayU32 scratch_keys = spec.alloc_key_buffer(n);
  ApproxArrayU32 scratch_ids = with_ids ? spec.alloc_id_buffer(n)
                                        : ApproxArrayU32(0, nullptr, Rng(0));
  const Buffers primary{spec.keys, spec.ids};
  const Buffers scratch{&scratch_keys, with_ids ? &scratch_ids : nullptr};

  ThreadPool* pool = spec.tuning.pool;
  const bool concurrent =
      pool != nullptr && pool->thread_count() > 1 &&
      spec.keys->unobserved() && scratch_keys.unobserved() &&
      (!with_ids || (spec.ids->unobserved() && scratch_ids.unobserved()));

  // DRAM-side stash, histograms, and windows (queue metadata — pointers in
  // a real implementation — so not simulated accesses).
  std::vector<uint32_t> stash_keys(n);
  std::vector<uint32_t> stash_ids(with_ids ? n : 0);
  std::vector<size_t> hist(num_stripes * buckets);
  std::vector<size_t> window(num_stripes * buckets);

  Buffers src = primary;
  Buffers dst = scratch;
  for (int pass = 0; pass < plan.passes; ++pass) {
    std::fill(hist.begin(), hist.end(), 0);
    PassShards shards(src, dst, num_stripes);

    // Phase A: each stripe reads its slice once (one simulated read per
    // array, key then id per element) in blocks straight into the stash,
    // and counts digits. The digit is computed from the (possibly
    // corrupted) stored key and fixed by this read, so the scatter cannot
    // diverge from the counts.
    RunStripes(pool, concurrent, num_stripes, [&](size_t s) {
      // Counted in a row of the stripe's own: neighbouring stripes' rows
      // of `hist` share cache lines.
      std::vector<size_t> h(buckets);
      constexpr size_t kBlock = 64;
      for (size_t i = stripes.Begin(s), end = stripes.End(s); i < end;) {
        const size_t m = std::min(kBlock, end - i);
        shards.src_keys[s].GatherPaired(
            i, &stash_keys[i], ShardOrNull(shards.src_ids, s),
            with_ids ? &stash_ids[i] : nullptr, m);
        for (size_t k = i; k < i + m; ++k) {
          ++h[plan.DigitLsd(stash_keys[k], pass)];
        }
        i += m;
      }
      std::copy(h.begin(), h.end(), hist.begin() + s * buckets);
    });

    // Phase B: serial prefix sum into per-(bucket, stripe) windows laid
    // out bucket-major, reproducing the serial queue order.
    size_t total = 0;
    for (uint32_t b = 0; b < buckets; ++b) {
      for (size_t s = 0; s < num_stripes; ++s) {
        window[b * num_stripes + s] = total;
        total += hist[s * buckets + b];
      }
    }
    APPROXMEM_CHECK(total == n);

    // Phase C: scatter the stash into the dst windows (one write per array
    // per element; the write may corrupt the value).
    RunStripes(pool, concurrent, num_stripes, [&](size_t s) {
      std::vector<size_t> cursors(buckets);
      for (uint32_t b = 0; b < buckets; ++b) {
        cursors[b] = window[b * num_stripes + s];
      }
      ScatterBuffer out(&shards.dst_keys[s], ShardOrNull(shards.dst_ids, s));
      for (size_t i = stripes.Begin(s), end = stripes.End(s); i < end; ++i) {
        const uint32_t bucket = plan.DigitLsd(stash_keys[i], pass);
        out.Push(cursors[bucket]++, stash_keys[i],
                 with_ids ? stash_ids[i] : 0);
      }
      out.Flush();
    });

    // Phase D: the queue kind drains dst back into src. The windows
    // already hold the pass's order, so blocks copy independently.
    if (output == PassOutput::kDrainBack) {
      CopyStripes(pool, concurrent, stripes, shards.dst_keys, shards.dst_ids,
                  shards.src_keys, shards.src_ids);
    }
    shards.MergeInto(src, dst);
    if (output == PassOutput::kSwap) std::swap(src, dst);
  }

  if (src.keys != primary.keys) {
    // Odd pass count: copy back to the primary buffer with fresh shards.
    PassShards shards(src, primary, num_stripes);
    CopyStripes(pool, concurrent, stripes, shards.src_keys, shards.src_ids,
                shards.dst_keys, shards.dst_ids);
    shards.MergeInto(src, primary);
  }
  return Status::Ok();
}

}  // namespace

Status LsdRadixSort(SortSpec& spec, int bits) {
  return StripedLsdSort(spec, bits, PassOutput::kDrainBack);
}

Status LsdHistogramSort(SortSpec& spec, int bits) {
  return StripedLsdSort(spec, bits, PassOutput::kSwap);
}

}  // namespace approxmem::sort
