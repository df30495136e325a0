#include "sort/radix_common.h"

#include <algorithm>

#include "common/check.h"
#include "common/thread_pool.h"

namespace approxmem::sort {

StripePlan StripePlan::ForN(size_t n) {
  StripePlan plan;
  plan.n = n;
  plan.count =
      std::clamp<size_t>(n / kMinStripeElements, 1, kMaxStripes);
  return plan;
}

void RunStripes(ThreadPool* pool, bool concurrent_ok, size_t count,
                const std::function<void(size_t)>& fn) {
  if (pool != nullptr && concurrent_ok && count > 1) {
    pool->ParallelFor(0, count, fn);
  } else {
    for (size_t s = 0; s < count; ++s) fn(s);
  }
}

RadixPlan RadixPlan::ForBits(int bits) {
  APPROXMEM_CHECK(bits >= 1 && bits <= 16);
  RadixPlan plan;
  plan.bits = bits;
  plan.passes = (32 + bits - 1) / bits;
  plan.mask = (1u << bits) - 1u;
  plan.buckets = 1u << bits;
  return plan;
}

BucketQueues::BucketQueues(uint32_t num_buckets,
                           approx::ApproxArrayU32* key_arena,
                           approx::ApproxArrayU32* id_arena, size_t arena_base)
    : key_arena_(key_arena),
      id_arena_(id_arena),
      next_(arena_base),
      positions_(num_buckets) {
  APPROXMEM_CHECK(key_arena != nullptr);
}

void BucketQueues::Push(uint32_t bucket, uint32_t key, uint32_t id) {
  APPROXMEM_CHECK(bucket < positions_.size());
  APPROXMEM_CHECK(next_ < key_arena_->size());
  key_arena_->Set(next_, key);
  if (id_arena_ != nullptr) id_arena_->Set(next_, id);
  positions_[bucket].push_back(static_cast<uint32_t>(next_));
  ++next_;
}

size_t BucketQueues::DrainTo(approx::ApproxArrayU32& keys,
                             approx::ApproxArrayU32* ids, size_t out_base) {
  size_t out = out_base;
  for (const auto& bucket : positions_) {
    for (const uint32_t pos : bucket) {
      keys.Set(out, key_arena_->Get(pos));
      if (ids != nullptr && id_arena_ != nullptr) {
        ids->Set(out, id_arena_->Get(pos));
      }
      ++out;
    }
  }
  return out - out_base;
}

}  // namespace approxmem::sort
