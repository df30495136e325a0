#include "sort/radix_lsd.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

#include "common/check.h"
#include "common/thread_pool.h"
#include "sort/radix_common.h"

namespace approxmem::sort {
namespace {

using approx::ApproxArrayU32;

/// Per-stripe scatter frontend: routes (key, id) pairs into the stripe's
/// per-bucket windows of the destination arrays, either word-at-a-time
/// (through a ScatterBuffer, so the write models run in blocks) or through
/// per-bucket DRAM staging rows flushed as sequential SetRange bursts
/// (Section 3.1's software write combining). Staging rows and the scatter
/// buffer are queue metadata in DRAM, not simulated accesses; only flushes
/// touch the instrumented arrays.
class WindowScatter {
 public:
  /// `windows[b]` is the first slot of this stripe's window for bucket b.
  /// `chunk == 0` disables write combining; word-at-a-time writes then go
  /// out in blocks of at most `block` elements.
  WindowScatter(ApproxArrayU32::Shard* keys, ApproxArrayU32::Shard* ids,
                const size_t* windows, uint32_t buckets, size_t chunk,
                size_t block)
      : keys_(keys),
        ids_(ids),
        cursor_(windows, windows + buckets),
        chunk_(chunk),
        words_(keys, ids, block) {
    if (chunk_ > 0) {
      staged_keys_.resize(buckets);
      for (auto& row : staged_keys_) row.reserve(chunk_);
      if (ids_ != nullptr) {
        staged_ids_.resize(buckets);
        for (auto& row : staged_ids_) row.reserve(chunk_);
      }
    }
  }

  void Emit(uint32_t bucket, uint32_t key, uint32_t id) {
    if (chunk_ == 0) {
      words_.Push(cursor_[bucket]++, key, id);
      return;
    }
    staged_keys_[bucket].push_back(key);
    if (ids_ != nullptr) staged_ids_[bucket].push_back(id);
    if (staged_keys_[bucket].size() == chunk_) Flush(bucket);
  }

  /// Writes out everything still buffered (staged rows in bucket order).
  void FlushAll() {
    if (chunk_ == 0) {
      words_.Flush();
      return;
    }
    for (size_t b = 0; b < cursor_.size(); ++b) Flush(b);
  }

 private:
  void Flush(size_t bucket) {
    auto& row = staged_keys_[bucket];
    if (row.empty()) return;
    keys_->SetRange(cursor_[bucket], row.data(), row.size());
    if (ids_ != nullptr) {
      ids_->SetRange(cursor_[bucket], staged_ids_[bucket].data(), row.size());
      staged_ids_[bucket].clear();
    }
    cursor_[bucket] += row.size();
    row.clear();
  }

  ApproxArrayU32::Shard* keys_;
  ApproxArrayU32::Shard* ids_;
  std::vector<size_t> cursor_;
  size_t chunk_;
  ScatterBuffer words_;
  std::vector<std::vector<uint32_t>> staged_keys_;
  std::vector<std::vector<uint32_t>> staged_ids_;
};

}  // namespace

Status LsdRadixSort(SortSpec& spec, const LsdRadixOptions& options) {
  Status status = ValidateSpec(spec, /*needs_buffers=*/true);
  if (!status.ok()) return status;
  if (options.bits < 1 || options.bits > 16) {
    return Status::InvalidArgument("LSD radix bits must be in [1, 16]");
  }
  if (options.write_combining && options.combine_chunk_elements == 0) {
    return Status::InvalidArgument("combine_chunk_elements must be >= 1");
  }
  const size_t n = spec.keys->size();
  if (n < 2) return Status::Ok();

  const RadixPlan plan = RadixPlan::ForBits(options.bits);
  const StripePlan stripes = StripePlan::ForN(n);
  const size_t num_stripes = stripes.count;
  const uint32_t buckets = plan.buckets;
  const bool with_ids = spec.ids != nullptr;
  const bool sqrt_mode = options.arena_mode == LsdArenaMode::kSqrtChunks;
  const size_t chunk =
      options.write_combining ? options.combine_chunk_elements : 0;

  // Sqrt mode recycles one ceil(sqrt(stripe length)) region per stripe.
  std::vector<size_t> arena_base(num_stripes + 1, 0);
  if (sqrt_mode) {
    for (size_t s = 0; s < num_stripes; ++s) {
      const size_t len = stripes.End(s) - stripes.Begin(s);
      const size_t cap = static_cast<size_t>(
          std::ceil(std::sqrt(static_cast<double>(len))));
      arena_base[s + 1] = arena_base[s] + std::max<size_t>(cap, 1);
    }
  }
  const size_t arena_words = sqrt_mode ? arena_base[num_stripes]
                                       : LsdArenaCapacity(n);

  ApproxArrayU32 key_arena = spec.alloc_key_buffer(arena_words);
  ApproxArrayU32 id_arena = with_ids
                                ? spec.alloc_id_buffer(arena_words)
                                : ApproxArrayU32(0, nullptr, Rng(0));

  ThreadPool* pool = options.pool;
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
    // array), stashes the observed values, and counts digits. The digit is
    // computed from the (possibly corrupted) stored key, as in the queue
    // formulation.
    RunStripes(pool, concurrent, num_stripes, [&](size_t s) {
      // Counted in a row of the stripe's own: neighbouring stripes' rows
      // of `hist` share cache lines.
      std::vector<size_t> h(buckets);
      for (size_t i = stripes.Begin(s), end = stripes.End(s); i < end; ++i) {
        const uint32_t key = keys_shards[s].Get(i);
        stash_keys[i] = key;
        if (with_ids) stash_ids[i] = ids_shards[s].Get(i);
        ++h[plan.DigitLsd(key, pass)];
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

    if (!sqrt_mode) {
      // Phase C: scatter the stash into the arena windows (one write per
      // array per element; the arena write may corrupt the value).
      RunStripes(pool, concurrent, num_stripes, [&](size_t s) {
        std::vector<size_t> cursors(buckets);
        for (uint32_t b = 0; b < buckets; ++b) {
          cursors[b] = window[b * num_stripes + s];
        }
        WindowScatter scatter(&arena_key_shards[s],
                              with_ids ? &arena_id_shards[s] : nullptr,
                              cursors.data(), buckets, chunk,
                              ApproxArrayU32::kScatterBlock);
        for (size_t i = stripes.Begin(s), end = stripes.End(s); i < end;
             ++i) {
          scatter.Emit(plan.DigitLsd(stash_keys[i], pass), stash_keys[i],
                       with_ids ? stash_ids[i] : 0);
        }
        scatter.FlushAll();
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
    } else {
      // Phases C+D fused: each stripe pushes sqrt-sized chunks through its
      // recycled arena region (one sequential burst in, one read back per
      // element) and emits straight into the destination windows. Same
      // access counts as the full-buffer path. Arena reads sit between the
      // emits, so each emit is written at once (blocks of one) to keep the
      // read/write order a hook or trace sees.
      RunStripes(pool, concurrent, num_stripes, [&](size_t s) {
        std::vector<size_t> cursors(buckets);
        for (uint32_t b = 0; b < buckets; ++b) {
          cursors[b] = window[b * num_stripes + s];
        }
        WindowScatter scatter(&keys_shards[s],
                              with_ids ? &ids_shards[s] : nullptr,
                              cursors.data(), buckets, chunk, /*block=*/1);
        const size_t base = arena_base[s];
        const size_t cap = arena_base[s + 1] - base;
        for (size_t i = stripes.Begin(s), end = stripes.End(s); i < end;) {
          const size_t m = std::min(cap, end - i);
          arena_key_shards[s].SetRange(base, &stash_keys[i], m);
          if (with_ids) {
            arena_id_shards[s].SetRange(base, &stash_ids[i], m);
          }
          for (size_t j = 0; j < m; ++j) {
            const uint32_t key = arena_key_shards[s].Get(base + j);
            const uint32_t id =
                with_ids ? arena_id_shards[s].Get(base + j) : 0;
            scatter.Emit(plan.DigitLsd(stash_keys[i + j], pass), key, id);
          }
          i += m;
        }
        scatter.FlushAll();
      });
    }

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
