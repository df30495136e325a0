#include "mem/pcm.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <deque>
#include <utility>

namespace approxmem::mem {
namespace {

TEST(PcmConfigTest, DefaultsMatchTable1) {
  PcmConfig config;
  EXPECT_EQ(config.ranks, 4u);
  EXPECT_EQ(config.banks_per_rank, 8u);
  EXPECT_EQ(config.TotalBanks(), 32u);
  EXPECT_EQ(config.page_bytes, 4096u);
  EXPECT_EQ(config.write_queue_depth, 32u);
  EXPECT_EQ(config.read_queue_depth, 8u);
  EXPECT_DOUBLE_EQ(config.read_latency_ns, 50.0);
  EXPECT_DOUBLE_EQ(config.write_latency_ns, 1000.0);
  EXPECT_TRUE(config.Validate().ok());
}

TEST(PcmConfigTest, Validation) {
  PcmConfig config;
  config.ranks = 0;
  EXPECT_FALSE(config.Validate().ok());
  config = PcmConfig();
  config.page_bytes = 1000;
  EXPECT_FALSE(config.Validate().ok());
  config = PcmConfig();
  config.write_queue_depth = 0;
  EXPECT_FALSE(config.Validate().ok());
}

TEST(PcmSimulatorTest, BankInterleavingByPage) {
  PcmSimulator sim(PcmConfig{});
  EXPECT_EQ(sim.BankOf(0), 0u);
  EXPECT_EQ(sim.BankOf(4096), 1u);
  EXPECT_EQ(sim.BankOf(4095), 0u);
  EXPECT_EQ(sim.BankOf(32ull * 4096), 0u);  // Wraps at 32 banks.
}

TEST(PcmSimulatorTest, NonPowerOfTwoBanksUseModuloAndTheRingWraps) {
  PcmConfig config;
  config.ranks = 3;  // 24 banks: BankOf cannot mask.
  config.write_queue_depth = 4;
  ASSERT_EQ(config.TotalBanks(), 24u);
  PcmSimulator sim(config);
  for (const uint64_t page :
       {0ull, 1ull, 23ull, 24ull, 25ull, 31ull, 32ull, 47ull, 48ull, 1000ull,
        123456789ull}) {
    EXPECT_EQ(sim.BankOf(page * 4096 + 100), page % 24) << page;
  }

  // Pages 0, 24 and 48 share bank 0 only under the modulo. Drive that
  // queue well past its depth, with distinct service times, against a
  // one-bank FIFO reference: the ring must stay in arrival order as it
  // wraps.
  std::deque<std::pair<double, double>> queue;  // (arrival, service)
  double inflight_end = 0.0, cpu = 0.0, stall = 0.0, total = 0.0;
  uint64_t full_events = 0;
  for (uint64_t k = 0; k < 40; ++k) {
    const double service = 100.0 + 37.0 * static_cast<double>(k % 7);
    sim.Write((k % 3) * 24 * 4096 + 8 * k, service);
    while (!queue.empty() && inflight_end <= cpu) {
      const double start = std::max(queue.front().first, inflight_end);
      if (start > cpu) break;
      inflight_end = start + queue.front().second;
      queue.pop_front();
    }
    if (queue.size() == config.write_queue_depth) {
      inflight_end =
          std::max(queue.front().first, inflight_end) + queue.front().second;
      queue.pop_front();
      if (inflight_end > cpu) {
        stall += inflight_end - cpu;
        cpu = inflight_end;
      }
      ++full_events;
    }
    queue.emplace_back(cpu, service);
    total += service;
    ASSERT_EQ(sim.cpu_time_ns(), cpu) << "write " << k;
  }
  for (; !queue.empty(); queue.pop_front()) {
    inflight_end =
        std::max(queue.front().first, inflight_end) + queue.front().second;
  }
  sim.Finish();
  EXPECT_EQ(sim.Stats().write_queue_full_events, full_events);
  EXPECT_GT(full_events, 2u * config.write_queue_depth);
  EXPECT_EQ(sim.Stats().write_stall_ns, stall);
  EXPECT_EQ(sim.Stats().total_write_latency_ns, total);
  EXPECT_EQ(sim.Stats().completion_time_ns, inflight_end);
}

TEST(PcmSimulatorTest, SingleReadCostsReadLatency) {
  PcmSimulator sim(PcmConfig{});
  const double latency = sim.Read(0);
  EXPECT_DOUBLE_EQ(latency, 50.0);
  EXPECT_DOUBLE_EQ(sim.cpu_time_ns(), 50.0);
}

TEST(PcmSimulatorTest, PostedWritesDoNotBlockCpu) {
  PcmSimulator sim(PcmConfig{});
  for (int i = 0; i < 10; ++i) sim.Write(0);
  EXPECT_DOUBLE_EQ(sim.cpu_time_ns(), 0.0);  // All posted.
  sim.Finish();
  EXPECT_EQ(sim.Stats().writes, 10u);
  // Ten writes drain serially on one bank.
  EXPECT_DOUBLE_EQ(sim.Stats().completion_time_ns, 10 * 1000.0);
}

TEST(PcmSimulatorTest, FullWriteQueueStallsCpu) {
  PcmConfig config;
  config.write_queue_depth = 2;
  PcmSimulator sim(config);
  // The first write starts service immediately; the next two fill the
  // two-entry queue behind it.
  sim.Write(0);
  sim.Write(0);
  sim.Write(0);
  EXPECT_DOUBLE_EQ(sim.cpu_time_ns(), 0.0);
  sim.Write(0);  // Queue full: stalls until the oldest queued write drains.
  EXPECT_GT(sim.cpu_time_ns(), 0.0);
  EXPECT_EQ(sim.Stats().write_queue_full_events, 1u);
  EXPECT_GT(sim.Stats().write_stall_ns, 0.0);
}

TEST(PcmSimulatorTest, ReadWaitsForInflightWrite) {
  PcmSimulator sim(PcmConfig{});
  sim.Write(0);   // Posted; starts service at t=0 on bank 0.
  // Let the bank pick up the write by issuing a read: the read must wait
  // for the in-service write to finish.
  const double latency = sim.Read(0);
  EXPECT_GT(latency, 50.0);
  EXPECT_GT(sim.Stats().read_queue_wait_ns, 0.0);
}

TEST(PcmSimulatorTest, ReadPriorityBypassesQueuedWrites) {
  PcmSimulator sim(PcmConfig{});
  for (int i = 0; i < 20; ++i) sim.Write(0);  // Deep write queue on bank 0.
  const double latency = sim.Read(0);
  // With read priority the read waits at most one write service time, not
  // twenty.
  EXPECT_LE(latency, 1000.0 + 50.0);
}

TEST(PcmSimulatorTest, ReadOnOtherBankUnaffected) {
  PcmSimulator sim(PcmConfig{});
  for (int i = 0; i < 20; ++i) sim.Write(0);  // Bank 0 busy.
  const double latency = sim.Read(4096);      // Bank 1 idle.
  EXPECT_DOUBLE_EQ(latency, 50.0);
}

TEST(PcmSimulatorTest, CustomWriteServiceLatency) {
  PcmSimulator sim(PcmConfig{});
  sim.Write(0, 500.0);  // Approximate bank: faster writes.
  sim.Finish();
  EXPECT_DOUBLE_EQ(sim.Stats().total_write_latency_ns, 500.0);
}

TEST(PcmSimulatorTest, StatsAggregate) {
  PcmSimulator sim(PcmConfig{});
  for (uint64_t i = 0; i < 64; ++i) sim.Write(i * 4096);
  for (uint64_t i = 0; i < 64; ++i) sim.Read(i * 4096);
  sim.Finish();
  const PcmStats& stats = sim.Stats();
  EXPECT_EQ(stats.writes, 64u);
  EXPECT_EQ(stats.reads, 64u);
  EXPECT_DOUBLE_EQ(stats.total_write_latency_ns, 64 * 1000.0);
  EXPECT_GT(stats.completion_time_ns, 0.0);
}

TEST(PcmSimulatorTest, ParallelBanksFinishFasterThanSerial) {
  // 32 writes across 32 banks complete in ~1 write time; 32 writes to one
  // bank take 32x as long.
  PcmSimulator spread(PcmConfig{});
  PcmSimulator pinned(PcmConfig{});
  for (uint64_t i = 0; i < 32; ++i) {
    spread.Write(i * 4096);
    pinned.Write(0);
  }
  spread.Finish();
  pinned.Finish();
  EXPECT_LT(spread.Stats().completion_time_ns,
            pinned.Stats().completion_time_ns / 8.0);
}

TEST(PcmRowBufferTest, DisabledByDefault) {
  PcmSimulator sim(PcmConfig{});
  sim.Read(0);
  sim.Read(0);
  sim.Finish();
  EXPECT_EQ(sim.Stats().row_buffer_hits, 0u);
}

TEST(PcmRowBufferTest, SameRowReadsGetDiscount) {
  PcmConfig config;
  config.row_buffer_hit_factor = 0.4;
  PcmSimulator sim(config);
  EXPECT_DOUBLE_EQ(sim.Read(0), 50.0);        // Opens the row.
  EXPECT_DOUBLE_EQ(sim.Read(64), 20.0);       // Same 4KB row: hit.
  EXPECT_DOUBLE_EQ(sim.Read(32 * 4096), 50.0);  // Same bank, other row.
  EXPECT_DOUBLE_EQ(sim.Read(32 * 4096 + 8), 20.0);
  EXPECT_EQ(sim.Stats().row_buffer_hits, 2u);
}

TEST(PcmRowBufferTest, SequentialWritesDrainFaster) {
  auto run = [](double factor) {
    PcmConfig config;
    config.row_buffer_hit_factor = factor;
    PcmSimulator sim(config);
    for (uint64_t i = 0; i < 64; ++i) sim.Write(i * 4);  // One row.
    sim.Finish();
    return sim.Stats().completion_time_ns;
  };
  EXPECT_LT(run(0.5), run(1.0));
  EXPECT_NEAR(run(0.5), 1000.0 + 63 * 500.0, 1.0);
}

TEST(PcmRowBufferTest, RowStateSurvivesAcrossQueueing) {
  PcmConfig config;
  config.row_buffer_hit_factor = 0.5;
  PcmSimulator sim(config);
  sim.Write(0);
  const double latency = sim.Read(64);  // Write to row 0 serviced first.
  // The read hits the row the write opened: waits 1000 then 25ns service.
  EXPECT_DOUBLE_EQ(latency, 1000.0 + 25.0);
}

TEST(PcmRowBufferTest, ValidatesFactorRange) {
  PcmConfig config;
  config.row_buffer_hit_factor = 0.0;
  EXPECT_FALSE(config.Validate().ok());
  config.row_buffer_hit_factor = 1.5;
  EXPECT_FALSE(config.Validate().ok());
  config.row_buffer_hit_factor = 1.0;
  EXPECT_TRUE(config.Validate().ok());
}

}  // namespace
}  // namespace approxmem::mem
