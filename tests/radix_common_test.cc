#include "sort/radix_common.h"

#include <gtest/gtest.h>

#include "approx/approx_memory.h"
#include "common/random.h"

namespace approxmem::sort {
namespace {

TEST(RadixPlanTest, PassCounts) {
  EXPECT_EQ(RadixPlan::ForBits(3).passes, 11);
  EXPECT_EQ(RadixPlan::ForBits(4).passes, 8);
  EXPECT_EQ(RadixPlan::ForBits(5).passes, 7);
  EXPECT_EQ(RadixPlan::ForBits(6).passes, 6);
  EXPECT_EQ(RadixPlan::ForBits(8).passes, 4);
}

TEST(RadixPlanTest, MasksAndBuckets) {
  const RadixPlan plan = RadixPlan::ForBits(6);
  EXPECT_EQ(plan.mask, 63u);
  EXPECT_EQ(plan.buckets, 64u);
  EXPECT_EQ(RadixPlan::ForBits(3).buckets, 8u);
}

TEST(RadixPlanTest, DigitExtraction) {
  const RadixPlan plan = RadixPlan::ForBits(4);
  EXPECT_EQ(plan.DigitLsd(0xABCD1234u, 0), 0x4u);
  EXPECT_EQ(plan.DigitLsd(0xABCD1234u, 1), 0x3u);
  EXPECT_EQ(plan.DigitLsd(0xABCD1234u, 7), 0xAu);
}

TEST(RadixPlanTest, TopShiftCoversHighBits) {
  // 3-bit plan: 11 passes, top shift 30 -> top digit covers bits 30-31.
  const RadixPlan plan = RadixPlan::ForBits(3);
  EXPECT_EQ(plan.TopShift(), 30);
  EXPECT_EQ((0xFFFFFFFFu >> plan.TopShift()) & plan.mask, 3u);
}

TEST(RadixPlanTest, DigitsReassembleKey) {
  for (int bits : {3, 4, 5, 6}) {
    const RadixPlan plan = RadixPlan::ForBits(bits);
    const uint32_t key = 0xDEADBEEFu;
    uint64_t reassembled = 0;
    for (int pass = plan.passes - 1; pass >= 0; --pass) {
      reassembled = (reassembled << bits) | plan.DigitLsd(key, pass);
    }
    EXPECT_EQ(static_cast<uint32_t>(reassembled), key) << bits << " bits";
  }
}

TEST(StripePlanTest, TilesTheIndexSpaceExactly) {
  for (const size_t n : {0u, 1u, 100u, 2047u, 2048u, 4096u, 8193u,
                         1000000u}) {
    const StripePlan plan = StripePlan::ForN(n);
    ASSERT_GE(plan.count, 1u) << "n=" << n;
    ASSERT_LE(plan.count, StripePlan::kMaxStripes) << "n=" << n;
    EXPECT_EQ(plan.Begin(0), 0u) << "n=" << n;
    EXPECT_EQ(plan.End(plan.count - 1), n) << "n=" << n;
    size_t covered = 0;
    for (size_t s = 0; s < plan.count; ++s) {
      EXPECT_EQ(plan.Begin(s), covered) << "n=" << n << " stripe " << s;
      ASSERT_LE(plan.Begin(s), plan.End(s));
      covered = plan.End(s);
    }
    EXPECT_EQ(covered, n);
  }
}

TEST(StripePlanTest, SmallInputsStaySerial) {
  // Below the minimum stripe size there is exactly one stripe, so tiny
  // sorts never pay any sharding overhead.
  EXPECT_EQ(StripePlan::ForN(1).count, 1u);
  EXPECT_EQ(StripePlan::ForN(StripePlan::kMinStripeElements - 1).count, 1u);
  EXPECT_EQ(StripePlan::ForN(4 * StripePlan::kMinStripeElements).count, 4u);
}

class BucketQueuesTest : public ::testing::Test {
 protected:
  BucketQueuesTest() : memory_(MakeOptions()) {}

  static approx::ApproxMemory::Options MakeOptions() {
    approx::ApproxMemory::Options options;
    options.calibration_trials = 5000;
    return options;
  }

  approx::ApproxMemory memory_;
};

TEST_F(BucketQueuesTest, DrainsInBucketThenFifoOrder) {
  approx::ApproxArrayU32 arena = memory_.NewPreciseArray(8);
  approx::ApproxArrayU32 out = memory_.NewPreciseArray(8);
  BucketQueues queues(4, &arena, nullptr);
  queues.Push(2, 20, 0);
  queues.Push(0, 1, 0);
  queues.Push(2, 21, 0);
  queues.Push(1, 10, 0);
  queues.Push(0, 2, 0);
  EXPECT_EQ(queues.BucketSize(0), 2u);
  EXPECT_EQ(queues.BucketSize(2), 2u);
  EXPECT_EQ(queues.BucketSize(3), 0u);
  EXPECT_EQ(queues.DrainTo(out, nullptr, 0), 5u);
  EXPECT_EQ(out.PeekActual(0), 1u);
  EXPECT_EQ(out.PeekActual(1), 2u);
  EXPECT_EQ(out.PeekActual(2), 10u);
  EXPECT_EQ(out.PeekActual(3), 20u);
  EXPECT_EQ(out.PeekActual(4), 21u);
}

TEST_F(BucketQueuesTest, CountsOneWritePerPushAndDrain) {
  approx::ApproxArrayU32 arena = memory_.NewPreciseArray(4);
  approx::ApproxArrayU32 out = memory_.NewPreciseArray(4);
  BucketQueues queues(2, &arena, nullptr);
  for (uint32_t i = 0; i < 4; ++i) queues.Push(i % 2, i, 0);
  queues.DrainTo(out, nullptr, 0);
  EXPECT_EQ(arena.stats().word_writes, 4u);  // Pushes.
  EXPECT_EQ(arena.stats().word_reads, 4u);   // Drain reads.
  EXPECT_EQ(out.stats().word_writes, 4u);    // Drain writes.
}

TEST_F(BucketQueuesTest, CarriesIdsAlongside) {
  approx::ApproxArrayU32 key_arena = memory_.NewPreciseArray(3);
  approx::ApproxArrayU32 id_arena = memory_.NewPreciseArray(3);
  approx::ApproxArrayU32 out_keys = memory_.NewPreciseArray(3);
  approx::ApproxArrayU32 out_ids = memory_.NewPreciseArray(3);
  BucketQueues queues(2, &key_arena, &id_arena);
  queues.Push(1, 100, 7);
  queues.Push(0, 50, 8);
  queues.Push(1, 101, 9);
  queues.DrainTo(out_keys, &out_ids, 0);
  EXPECT_EQ(out_keys.PeekActual(0), 50u);
  EXPECT_EQ(out_ids.PeekActual(0), 8u);
  EXPECT_EQ(out_keys.PeekActual(1), 100u);
  EXPECT_EQ(out_ids.PeekActual(1), 7u);
  EXPECT_EQ(out_keys.PeekActual(2), 101u);
  EXPECT_EQ(out_ids.PeekActual(2), 9u);
}

TEST_F(BucketQueuesTest, ArenaBaseOffsetsSegments) {
  approx::ApproxArrayU32 arena = memory_.NewPreciseArray(10);
  approx::ApproxArrayU32 out = memory_.NewPreciseArray(10);
  BucketQueues queues(2, &arena, nullptr, /*arena_base=*/5);
  queues.Push(0, 42, 0);
  EXPECT_EQ(arena.PeekActual(5), 42u);  // Written inside the segment.
  queues.DrainTo(out, nullptr, 5);
  EXPECT_EQ(out.PeekActual(5), 42u);
}

TEST_F(BucketQueuesTest, RandomBucketOrderWritesTheArenaSequentially) {
  approx::ApproxArrayU32 arena = memory_.NewPreciseArray(64);
  BucketQueues queues(4, &arena, nullptr);
  Rng rng(2);
  for (int i = 0; i < 64; ++i) {
    queues.Push(static_cast<uint32_t>(rng.UniformInt(4)), rng.NextU32(), 0);
  }
  // Random bucket order still writes the bump arena slot by slot, so every
  // write after the first is sequential.
  EXPECT_EQ(arena.stats().sequential_writes, 63u);
}

}  // namespace
}  // namespace approxmem::sort
