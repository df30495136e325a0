// Shared machinery of the radix-sort family: digit plans and queue-bucket
// storage (Section 3.1 implements LSD/MSD "using queues as buckets").
#ifndef APPROXMEM_SORT_RADIX_COMMON_H_
#define APPROXMEM_SORT_RADIX_COMMON_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "approx/approx_array.h"
#include "common/status.h"
#include "sort/sort_common.h"

namespace approxmem {
class ThreadPool;
}

namespace approxmem::sort {

/// Pass layout for a given digit width over 32-bit keys.
struct RadixPlan {
  int bits = 6;             // 3..6 in the paper (8..64 buckets).
  int passes = 6;           // ceil(32 / bits).
  uint32_t mask = 63;       // (1 << bits) - 1.
  uint32_t buckets = 64;    // 1 << bits.

  static RadixPlan ForBits(int bits);
  /// Digit of `key` for `pass` counted from the least significant digit.
  uint32_t DigitLsd(uint32_t key, int pass) const {
    return (key >> (bits * pass)) & mask;
  }
  /// Right-shift amount of the most significant digit.
  int TopShift() const { return bits * (passes - 1); }
};

/// Fixed decomposition of [0, n) into contiguous stripes for the parallel
/// radix passes. The stripe count is a function of n alone — never of the
/// thread count — so per-stripe RNG substreams, digit histograms, and
/// scatter windows are identical no matter how stripes are scheduled.
struct StripePlan {
  size_t n = 0;
  size_t count = 1;

  /// Stripes hold at least this many elements (tiny inputs stay serial);
  /// the count is capped so per-stripe state stays small.
  static constexpr size_t kMinStripeElements = 2048;
  static constexpr size_t kMaxStripes = 64;

  static StripePlan ForN(size_t n);
  size_t Begin(size_t stripe) const { return stripe * n / count; }
  size_t End(size_t stripe) const { return (stripe + 1) * n / count; }
};

/// Runs fn(stripe) for stripes [0, count): concurrently on `pool` when
/// `concurrent_ok` and a multi-thread pool is given, serially in stripe
/// order otherwise. Callers decompose the work so both schedules give
/// bit-identical results.
void RunStripes(ThreadPool* pool, bool concurrent_ok, size_t count,
                const std::function<void(size_t)>& fn);

/// One stripe's word-at-a-time scatter: buffers (destination, key, id)
/// triples and writes them through Shard::ScatterPaired in blocks of
/// kScatterBlock elements, so the write models run batched while the arrays
/// see the same per-element key, id write sequence. Call Flush() before
/// the shards are read or merged.
class ScatterBuffer {
 public:
  /// `ids` may be null when no ids are tracked.
  ScatterBuffer(approx::ApproxArrayU32::Shard* keys,
                approx::ApproxArrayU32::Shard* ids)
      : keys_(keys), ids_(ids) {}

  void Push(size_t dest, uint32_t key, uint32_t id) {
    dest_[pending_] = dest;
    keys_pending_[pending_] = key;
    ids_pending_[pending_] = id;
    if (++pending_ == kBlock) Flush();
  }

  void Flush() {
    if (pending_ == 0) return;
    keys_->ScatterPaired(dest_, keys_pending_, ids_, ids_pending_, pending_);
    pending_ = 0;
  }

 private:
  static constexpr size_t kBlock = approx::ApproxArrayU32::kScatterBlock;
  approx::ApproxArrayU32::Shard* keys_;
  approx::ApproxArrayU32::Shard* ids_;
  size_t pending_ = 0;
  size_t dest_[kBlock];
  uint32_t keys_pending_[kBlock];
  uint32_t ids_pending_[kBlock];
};

/// Queue-bucket storage backed by instrumented scratch arrays.
///
/// Pushing appends the key (and id) to a bump arena — one simulated data
/// write each, in the arena's precision domain — and records the slot in a
/// per-bucket position list. The position lists are queue metadata
/// (pointers in a real implementation) and are not counted as data writes.
/// Draining replays buckets in order back into the destination arrays, one
/// read + one write per element.
class BucketQueues {
 public:
  /// `key_arena` must have capacity for every pushed element starting at
  /// `arena_base`; `id_arena` may be null when no ids are tracked.
  BucketQueues(uint32_t num_buckets, approx::ApproxArrayU32* key_arena,
               approx::ApproxArrayU32* id_arena, size_t arena_base = 0);

  /// Appends (key, id) to `bucket`. Ignores `id` when ids are not tracked.
  void Push(uint32_t bucket, uint32_t key, uint32_t id);

  /// Writes all buckets, in bucket order, into keys[out_base...] (and ids).
  /// Returns the number of elements drained.
  size_t DrainTo(approx::ApproxArrayU32& keys, approx::ApproxArrayU32* ids,
                 size_t out_base);

  size_t BucketSize(uint32_t bucket) const {
    return positions_[bucket].size();
  }

 private:
  approx::ApproxArrayU32* key_arena_;
  approx::ApproxArrayU32* id_arena_;
  size_t next_;
  std::vector<std::vector<uint32_t>> positions_;
};

}  // namespace approxmem::sort

#endif  // APPROXMEM_SORT_RADIX_COMMON_H_
