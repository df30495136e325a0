#include "mem/memory_system.h"

#include <utility>

namespace approxmem::mem {

MemorySystem::MemorySystem(CacheHierarchy hierarchy,
                           const PcmConfig& pcm_config)
    : hierarchy_(std::move(hierarchy)),
      pcm_(pcm_config),
      l1_ns_(hierarchy_.LatencyNs(HitLevel::kL1)),
      l2_ns_(hierarchy_.LatencyNs(HitLevel::kL2)),
      l3_ns_(hierarchy_.LatencyNs(HitLevel::kL3)) {}

MemorySystem MemorySystem::PaperDefault() {
  return MemorySystem(CacheHierarchy::PaperDefault(), PcmConfig{});
}

double MemorySystem::Read(uint64_t address) {
  ++stats_.reads;
  double latency;
  switch (hierarchy_.Read(address)) {
    case HitLevel::kL1:
      ++stats_.l1_read_hits;
      latency = l1_ns_;
      break;
    case HitLevel::kL2:
      ++stats_.l2_read_hits;
      latency = l2_ns_;
      break;
    case HitLevel::kL3:
      ++stats_.l3_read_hits;
      latency = l3_ns_;
      break;
    default:
      ++stats_.memory_reads;
      latency = pcm_.Read(address);
      break;
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

double MemorySystem::ChargedWrite(uint64_t address, double cost) {
  const double stall_before = pcm_.Stats().write_stall_ns;
  Write(address, cost);
  return cost + (pcm_.Stats().write_stall_ns - stall_before);
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
