// Test helpers that observe the simulated memory from outside.
//
// RecordingHook logs (address, read|write) for every array access it sees,
// in call order, and forwards the access to an optional inner hook (for
// example a FaultInjector), so the inner hook decides exactly as it would
// alone. Like any fault hook it makes the arrays it observes non-plain and
// not shard-safe: their striped passes run serially, in shard order.
// DeviceState captures a Table 1 memory system's statistics for exact
// comparison.
#ifndef APPROXMEM_TESTS_ACCESS_STREAM_H_
#define APPROXMEM_TESTS_ACCESS_STREAM_H_

#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "approx/fault_hook.h"
#include "mem/memory_system.h"
#include "mem/pcm.h"

namespace approxmem {

struct AccessEvent {
  uint64_t address = 0;
  mem::AccessKind kind = mem::AccessKind::kRead;
};

class RecordingHook final : public approx::MemoryFaultHook {
 public:
  explicit RecordingHook(approx::MemoryFaultHook* inner = nullptr)
      : inner_(inner) {}

  uint32_t OnWrite(uint64_t address, bool precise_domain, uint32_t intended,
                   uint32_t stored) override {
    events_.push_back({address, mem::AccessKind::kWrite});
    return inner_ != nullptr
               ? inner_->OnWrite(address, precise_domain, intended, stored)
               : stored;
  }

  uint32_t OnRead(uint64_t address, bool precise_domain,
                  uint32_t value) override {
    events_.push_back({address, mem::AccessKind::kRead});
    return inner_ != nullptr ? inner_->OnRead(address, precise_domain, value)
                             : value;
  }

  const std::vector<AccessEvent>& events() const { return events_; }

 private:
  approx::MemoryFaultHook* inner_;
  std::vector<AccessEvent> events_;
};

// The state of a Table 1 memory system (all zero for a null one, as for a
// backend without a device), read after draining its queues.
struct DeviceState {
  mem::MemorySystemStats system;
  mem::PcmStats pcm;
  uint64_t cache_hits[3] = {};
  uint64_t cache_misses[3] = {};
};

inline DeviceState CaptureDevice(mem::MemorySystem* device) {
  DeviceState state;
  if (device == nullptr) return state;
  state.system = device->Finish();
  state.pcm = device->pcm().Stats();
  const mem::Cache* levels[3] = {&device->hierarchy().l1(),
                                 &device->hierarchy().l2(),
                                 &device->hierarchy().l3()};
  for (int l = 0; l < 3; ++l) {
    state.cache_hits[l] = levels[l]->hits();
    state.cache_misses[l] = levels[l]->misses();
  }
  return state;
}

// Every field equal, doubles included.
inline void ExpectSameDevice(const DeviceState& a, const DeviceState& b) {
  EXPECT_EQ(a.system.reads, b.system.reads);
  EXPECT_EQ(a.system.writes, b.system.writes);
  EXPECT_EQ(a.system.l1_read_hits, b.system.l1_read_hits);
  EXPECT_EQ(a.system.l2_read_hits, b.system.l2_read_hits);
  EXPECT_EQ(a.system.l3_read_hits, b.system.l3_read_hits);
  EXPECT_EQ(a.system.memory_reads, b.system.memory_reads);
  EXPECT_EQ(a.system.total_read_latency_ns, b.system.total_read_latency_ns);
  EXPECT_EQ(a.system.total_write_latency_ns, b.system.total_write_latency_ns);
  EXPECT_EQ(a.system.write_stall_ns, b.system.write_stall_ns);
  EXPECT_EQ(a.system.completion_time_ns, b.system.completion_time_ns);
  EXPECT_EQ(a.pcm.reads, b.pcm.reads);
  EXPECT_EQ(a.pcm.writes, b.pcm.writes);
  EXPECT_EQ(a.pcm.faulted_accesses, b.pcm.faulted_accesses);
  EXPECT_EQ(a.pcm.total_read_latency_ns, b.pcm.total_read_latency_ns);
  EXPECT_EQ(a.pcm.total_write_latency_ns, b.pcm.total_write_latency_ns);
  EXPECT_EQ(a.pcm.read_queue_wait_ns, b.pcm.read_queue_wait_ns);
  EXPECT_EQ(a.pcm.write_stall_ns, b.pcm.write_stall_ns);
  EXPECT_EQ(a.pcm.write_queue_full_events, b.pcm.write_queue_full_events);
  EXPECT_EQ(a.pcm.row_buffer_hits, b.pcm.row_buffer_hits);
  EXPECT_EQ(a.pcm.completion_time_ns, b.pcm.completion_time_ns);
  for (int l = 0; l < 3; ++l) {
    EXPECT_EQ(a.cache_hits[l], b.cache_hits[l]) << "L" << l + 1;
    EXPECT_EQ(a.cache_misses[l], b.cache_misses[l]) << "L" << l + 1;
  }
}

}  // namespace approxmem

#endif  // APPROXMEM_TESTS_ACCESS_STREAM_H_
