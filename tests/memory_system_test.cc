#include "mem/memory_system.h"

#include <gtest/gtest.h>

namespace approxmem::mem {
namespace {

TEST(MemorySystemTest, FirstReadGoesToMemorySecondHitsL1) {
  MemorySystem system = MemorySystem::PaperDefault();
  const double cold = system.Read(0x1000);
  EXPECT_GE(cold, 50.0);  // At least the PCM read latency.
  const double warm = system.Read(0x1000);
  EXPECT_DOUBLE_EQ(warm, 1.0);  // L1 hit latency.
  const MemorySystemStats stats = system.Finish();
  EXPECT_EQ(stats.reads, 2u);
  EXPECT_EQ(stats.memory_reads, 1u);
  EXPECT_EQ(stats.l1_read_hits, 1u);
}

TEST(MemorySystemTest, WritesAreWriteThrough) {
  MemorySystem system = MemorySystem::PaperDefault();
  for (int i = 0; i < 100; ++i) system.Write(0x40 * i);
  const MemorySystemStats stats = system.Finish();
  EXPECT_EQ(stats.writes, 100u);
  // Every write reaches PCM: total service time is writes x 1us.
  EXPECT_DOUBLE_EQ(stats.total_write_latency_ns, 100 * 1000.0);
}

TEST(MemorySystemTest, ApproximateWriteLatencyPassesThrough) {
  MemorySystem system = MemorySystem::PaperDefault();
  system.Write(0, 660.0);  // Approximate bank write at p(t)=0.66.
  const MemorySystemStats stats = system.Finish();
  EXPECT_DOUBLE_EQ(stats.total_write_latency_ns, 660.0);
}

TEST(MemorySystemTest, CountsHitsAndMisses) {
  MemorySystem system = MemorySystem::PaperDefault();
  system.Read(0);
  system.Read(0);
  system.Read(64);
  system.Write(0);
  const MemorySystemStats stats = system.Finish();
  EXPECT_EQ(stats.reads, 3u);
  EXPECT_EQ(stats.writes, 1u);
  EXPECT_EQ(stats.memory_reads, 2u);
  EXPECT_EQ(stats.l1_read_hits, 1u);
  EXPECT_GT(stats.total_read_latency_ns, 0.0);
}

TEST(MemorySystemTest, SequentialScanMostlyHitsAfterFirstTouch) {
  MemorySystem system = MemorySystem::PaperDefault();
  // Two passes over a 64KB buffer (fits L2/L3, not L1).
  for (int pass = 0; pass < 2; ++pass) {
    for (uint64_t addr = 0; addr < 64 * 1024; addr += 4) {
      system.Read(addr);
    }
  }
  const MemorySystemStats stats = system.Finish();
  // 64KB / 64B = 1024 cold line misses; everything else hits some level.
  EXPECT_EQ(stats.memory_reads, 1024u);
  EXPECT_GT(stats.l1_read_hits, 15000u);  // 15/16 accesses hit the line.
}

TEST(MemorySystemTest, RowBufferAcceleratesSequentialScan) {
  auto run = [](double factor) {
    PcmConfig pcm;
    pcm.row_buffer_hit_factor = factor;
    MemorySystem system(CacheHierarchy::PaperDefault(), pcm);
    for (uint64_t addr = 0; addr < 256 * 1024; addr += 4) {
      system.Write(addr);
    }
    return system.Finish().completion_time_ns;
  };
  EXPECT_LT(run(0.5), 0.6 * run(1.0));
}

}  // namespace
}  // namespace approxmem::mem
