#include "sort/radix_lsd.h"

#include <algorithm>
#include <cstdint>
#include <vector>

#include "common/check.h"
#include "common/thread_pool.h"
#include "sort/radix_common.h"

namespace approxmem::sort {

using approx::ApproxArrayU32;

Status LsdRadixSort(SortSpec& spec, int bits) {
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
  const size_t arena_words = LsdArenaCapacity(n);

  ApproxArrayU32 key_arena = spec.alloc_key_buffer(arena_words);
  ApproxArrayU32 id_arena = with_ids
                                ? spec.alloc_id_buffer(arena_words)
                                : ApproxArrayU32(0, nullptr, Rng(0));

  ThreadPool* pool = spec.tuning.pool;
  const bool concurrent =
      pool != nullptr && pool->thread_count() > 1 && num_stripes > 1 &&
      spec.keys->ConcurrentShardSafe() && key_arena.ConcurrentShardSafe() &&
      (!with_ids || (spec.ids->ConcurrentShardSafe() &&
                     id_arena.ConcurrentShardSafe()));

  // DRAM-side stash, histograms, and windows (queue metadata — pointers in
  // a real implementation — so not simulated accesses).
  std::vector<uint32_t> stash_keys(n);
  std::vector<uint32_t> stash_ids(with_ids ? n : 0);
  std::vector<size_t> hist(num_stripes * buckets);
  std::vector<size_t> window(num_stripes * buckets);

  for (int pass = 0; pass < plan.passes; ++pass) {
    std::fill(hist.begin(), hist.end(), 0);

    // One RNG substream per stripe per array, split in stripe order, so the
    // draw sequence is fixed by the plan, not the schedule.
    auto keys_shards = spec.keys->MakeShards(num_stripes);
    auto arena_key_shards = key_arena.MakeShards(num_stripes);
    auto ids_shards = with_ids ? spec.ids->MakeShards(num_stripes)
                               : std::vector<ApproxArrayU32::Shard>{};
    auto arena_id_shards = with_ids ? id_arena.MakeShards(num_stripes)
                                    : std::vector<ApproxArrayU32::Shard>{};

    // Phase A: each stripe reads its slice once (one simulated read per
    // array, key then id per element) in blocks straight into the stash,
    // and counts digits. The digit is computed from the (possibly
    // corrupted) stored key, as in the queue formulation.
    RunStripes(pool, concurrent, num_stripes, [&](size_t s) {
      // Counted in a row of the stripe's own: neighbouring stripes' rows
      // of `hist` share cache lines.
      std::vector<size_t> h(buckets);
      constexpr size_t kBlock = 64;
      for (size_t i = stripes.Begin(s), end = stripes.End(s); i < end;) {
        const size_t m = std::min(kBlock, end - i);
        keys_shards[s].GatherPaired(i, &stash_keys[i],
                                    with_ids ? &ids_shards[s] : nullptr,
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

    // Phase C: scatter the stash into the arena windows (one write per
    // array per element; the arena write may corrupt the value).
    RunStripes(pool, concurrent, num_stripes, [&](size_t s) {
      std::vector<size_t> cursors(buckets);
      for (uint32_t b = 0; b < buckets; ++b) {
        cursors[b] = window[b * num_stripes + s];
      }
      ScatterBuffer out(&arena_key_shards[s],
                        with_ids ? &arena_id_shards[s] : nullptr);
      for (size_t i = stripes.Begin(s), end = stripes.End(s); i < end; ++i) {
        const uint32_t bucket = plan.DigitLsd(stash_keys[i], pass);
        out.Push(cursors[bucket]++, stash_keys[i],
                 with_ids ? stash_ids[i] : 0);
      }
      out.Flush();
    });

    // Phase D: contiguous drain arena -> keys (one read + one write per
    // array per element). The arena already holds the pass's order, so
    // blocks copy independently; corrupted arena values propagate, as a
    // queue drain would.
    RunStripes(pool, concurrent, num_stripes, [&](size_t s) {
      constexpr size_t kBlock = 64;
      uint32_t buf[kBlock];
      for (size_t i = stripes.Begin(s), end = stripes.End(s); i < end;) {
        const size_t m = std::min(kBlock, end - i);
        arena_key_shards[s].GetRange(i, buf, m);
        keys_shards[s].SetRange(i, buf, m);
        if (with_ids) {
          arena_id_shards[s].GetRange(i, buf, m);
          ids_shards[s].SetRange(i, buf, m);
        }
        i += m;
      }
    });

    spec.keys->MergeShards(keys_shards);
    key_arena.MergeShards(arena_key_shards);
    if (with_ids) {
      spec.ids->MergeShards(ids_shards);
      id_arena.MergeShards(arena_id_shards);
    }
  }
  return Status::Ok();
}

}  // namespace approxmem::sort
