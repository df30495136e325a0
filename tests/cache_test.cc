#include "mem/cache.h"

#include <gtest/gtest.h>

#include <utility>

namespace approxmem::mem {
namespace {

CacheConfig SmallCache() {
  CacheConfig config;
  config.capacity_bytes = 1024;  // 4 sets x 4 ways x 64B.
  config.ways = 4;
  config.line_bytes = 64;
  config.hit_latency_ns = 1.0;
  return config;
}

TEST(CacheConfigTest, ValidatesGeometry) {
  EXPECT_TRUE(SmallCache().Validate().ok());
  CacheConfig bad = SmallCache();
  bad.line_bytes = 48;  // Not a power of two.
  EXPECT_FALSE(bad.Validate().ok());
  bad = SmallCache();
  bad.ways = 0;
  EXPECT_FALSE(bad.Validate().ok());
  bad = SmallCache();
  bad.capacity_bytes = 1000;  // Not a multiple of ways*line.
  EXPECT_FALSE(bad.Validate().ok());
  bad = SmallCache();
  bad.capacity_bytes = 768;  // 3 sets: not a power of two.
  EXPECT_FALSE(bad.Validate().ok());
}

TEST(CacheTest, ColdMissThenHit) {
  Cache cache(SmallCache());
  EXPECT_FALSE(cache.AccessRead(0x0));
  EXPECT_TRUE(cache.AccessRead(0x0));
  EXPECT_TRUE(cache.AccessRead(0x3F));  // Same 64B line.
  EXPECT_FALSE(cache.AccessRead(0x40));  // Next line.
  EXPECT_EQ(cache.hits(), 2u);
  EXPECT_EQ(cache.misses(), 2u);
}

TEST(CacheTest, LruEvictionOrder) {
  Cache cache(SmallCache());  // 4 ways per set; set stride is 4*64 = 256B.
  // Fill one set with 4 lines.
  for (uint64_t i = 0; i < 4; ++i) cache.AccessRead(i * 256);
  // Touch line 0 so line 1 becomes LRU.
  EXPECT_TRUE(cache.AccessRead(0));
  // Install a 5th line in the same set; line 1 must be evicted.
  EXPECT_FALSE(cache.AccessRead(4 * 256));
  EXPECT_TRUE(cache.AccessRead(0));        // Still resident.
  EXPECT_FALSE(cache.AccessRead(1 * 256));  // Evicted.
}

TEST(CacheTest, WritesDoNotAllocate) {
  Cache cache(SmallCache());
  EXPECT_FALSE(cache.AccessWrite(0x0));
  EXPECT_FALSE(cache.AccessRead(0x0));  // Still a miss: no write-allocate.
}

TEST(CacheTest, WriteHitsUpdateRecency) {
  Cache cache(SmallCache());
  for (uint64_t i = 0; i < 4; ++i) cache.AccessRead(i * 256);
  EXPECT_TRUE(cache.AccessWrite(0));       // Write hit touches line 0.
  cache.AccessRead(4 * 256);               // Evicts line 1 (LRU), not 0.
  EXPECT_TRUE(cache.AccessRead(0));
}

TEST(CacheTest, FlushInvalidatesAll) {
  Cache cache(SmallCache());
  cache.AccessRead(0);
  cache.Flush();
  EXPECT_FALSE(cache.AccessRead(0));
}

TEST(CacheTest, ResetStatsKeepsContents) {
  Cache cache(SmallCache());
  cache.AccessRead(0);
  cache.ResetStats();
  EXPECT_EQ(cache.hits(), 0u);
  EXPECT_EQ(cache.misses(), 0u);
  EXPECT_TRUE(cache.AccessRead(0));  // Line still resident.
}

TEST(CacheTest, MoveCarriesLines) {
  // The line table is mapped memory owned by one Cache at a time.
  Cache cache(SmallCache());
  EXPECT_FALSE(cache.AccessRead(0x0));
  Cache moved(std::move(cache));
  EXPECT_TRUE(moved.AccessRead(0x0));
  Cache assigned(SmallCache());
  EXPECT_FALSE(assigned.AccessRead(0x40));
  assigned = std::move(moved);
  EXPECT_TRUE(assigned.AccessRead(0x0));
  EXPECT_FALSE(assigned.AccessRead(0x40));
}

TEST(CacheHierarchyTest, PaperDefaultGeometry) {
  CacheHierarchy hierarchy = CacheHierarchy::PaperDefault();
  EXPECT_EQ(hierarchy.l1().config().capacity_bytes, 32u * 1024);
  EXPECT_EQ(hierarchy.l2().config().capacity_bytes, 2u * 1024 * 1024);
  EXPECT_EQ(hierarchy.l2().config().ways, 4u);
  EXPECT_EQ(hierarchy.l3().config().capacity_bytes, 32ull * 1024 * 1024);
  EXPECT_EQ(hierarchy.l3().config().ways, 8u);
  EXPECT_DOUBLE_EQ(hierarchy.l3().config().hit_latency_ns, 10.0);
}

TEST(CacheHierarchyTest, ReadFillsAllLevels) {
  CacheHierarchy hierarchy = CacheHierarchy::PaperDefault();
  EXPECT_EQ(hierarchy.Read(0x1234), HitLevel::kMemory);
  EXPECT_EQ(hierarchy.Read(0x1234), HitLevel::kL1);
}

TEST(CacheHierarchyTest, L1EvictionFallsBackToL2) {
  CacheHierarchy hierarchy = CacheHierarchy::PaperDefault();
  hierarchy.Read(0);
  // Stream enough lines through the same L1 set to evict address 0 from L1
  // but not from the much larger L2. L1: 32KB/8way/64B = 64 sets, so lines
  // 64*64B = 4KB apart share a set.
  for (uint64_t i = 1; i <= 8; ++i) hierarchy.Read(i * 4096);
  EXPECT_EQ(hierarchy.Read(0), HitLevel::kL2);
}

TEST(CacheHierarchyTest, LatencyPerLevel) {
  CacheHierarchy hierarchy = CacheHierarchy::PaperDefault();
  EXPECT_GT(hierarchy.LatencyNs(HitLevel::kL2),
            hierarchy.LatencyNs(HitLevel::kL1));
  EXPECT_GT(hierarchy.LatencyNs(HitLevel::kL3),
            hierarchy.LatencyNs(HitLevel::kL2));
  EXPECT_DOUBLE_EQ(hierarchy.LatencyNs(HitLevel::kMemory), 0.0);
}

}  // namespace
}  // namespace approxmem::mem
