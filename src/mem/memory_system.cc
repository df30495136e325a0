#include "mem/memory_system.h"

namespace approxmem::mem {

MemorySystem::MemorySystem(CacheHierarchy hierarchy,
                           const PcmConfig& pcm_config)
    : hierarchy_(std::move(hierarchy)), pcm_(pcm_config) {}

MemorySystem MemorySystem::PaperDefault() {
  return MemorySystem(CacheHierarchy::PaperDefault(), PcmConfig{});
}

double MemorySystem::Read(uint64_t address) {
  ++stats_.reads;
  const HitLevel level = hierarchy_.Read(address);
  switch (level) {
    case HitLevel::kL1:
      ++stats_.l1_read_hits;
      break;
    case HitLevel::kL2:
      ++stats_.l2_read_hits;
      break;
    case HitLevel::kL3:
      ++stats_.l3_read_hits;
      break;
    case HitLevel::kMemory:
      ++stats_.memory_reads;
      break;
  }
  double latency = hierarchy_.LatencyNs(level);
  if (level == HitLevel::kMemory) {
    latency += pcm_.Read(address);
  }
  stats_.total_read_latency_ns += latency;
  return latency;
}

void MemorySystem::Write(uint64_t address) {
  ++stats_.writes;
  hierarchy_.Write(address);
  pcm_.Write(address);
}

void MemorySystem::Write(uint64_t address, double pcm_service_latency_ns) {
  ++stats_.writes;
  hierarchy_.Write(address);
  pcm_.Write(address, pcm_service_latency_ns);
}

MemorySystemStats MemorySystem::Finish() {
  pcm_.Finish();
  const PcmStats& pcm_stats = pcm_.Stats();
  stats_.total_write_latency_ns = pcm_stats.total_write_latency_ns;
  stats_.write_stall_ns = pcm_stats.write_stall_ns;
  stats_.completion_time_ns = pcm_stats.completion_time_ns;
  return stats_;
}

}  // namespace approxmem::mem
