// Full memory system: write-through cache hierarchy in front of banked PCM.
//
// This is the substrate of the paper's trace-driven in-house simulator
// (Table 1). The mlc-pcm-banked backend (src/approx/backend_pcm.cc) drives
// it with every array access as it happens, in program order. Reads that hit
// a cache level cost that level's latency; misses and all writes
// (write-through) go to PCM.
#ifndef APPROXMEM_MEM_MEMORY_SYSTEM_H_
#define APPROXMEM_MEM_MEMORY_SYSTEM_H_

#include <cstdint>

#include "mem/cache.h"
#include "mem/pcm.h"

namespace approxmem::mem {

/// Aggregate statistics of the accesses issued to the memory system.
struct MemorySystemStats {
  uint64_t reads = 0;
  uint64_t writes = 0;
  uint64_t l1_read_hits = 0;
  uint64_t l2_read_hits = 0;
  uint64_t l3_read_hits = 0;
  uint64_t memory_reads = 0;
  double total_read_latency_ns = 0.0;
  double total_write_latency_ns = 0.0;  // PCM service time of all writes.
  double write_stall_ns = 0.0;
  double completion_time_ns = 0.0;
};

/// Combines CacheHierarchy and PcmSimulator; accepts a stream of accesses.
class MemorySystem {
 public:
  MemorySystem(CacheHierarchy hierarchy, const PcmConfig& pcm_config);

  /// Builds the Table 1 configuration.
  static MemorySystem PaperDefault();

  /// Issues one read; returns its end-to-end latency in ns.
  double Read(uint64_t address);

  /// Issues one write; write-through so it always reaches PCM. An optional
  /// service latency models approximate-bank writes (latency ~ avg #P).
  void Write(uint64_t address);
  void Write(uint64_t address, double pcm_service_latency_ns);

  /// Issues one write of service latency `cost` and returns the cost to
  /// book for it: `cost` plus the CPU stall its posting caused. This is
  /// how a banked array charges each written word.
  double ChargedWrite(uint64_t address, double cost);

  /// Drains PCM queues and returns the final statistics.
  MemorySystemStats Finish();

  const CacheHierarchy& hierarchy() const { return hierarchy_; }
  /// The banked PCM backend (for fault listeners and conservation checks).
  PcmSimulator& pcm() { return pcm_; }
  const PcmSimulator& pcm() const { return pcm_; }

 private:
  CacheHierarchy hierarchy_;
  PcmSimulator pcm_;
  MemorySystemStats stats_;
  // The hierarchy's L1/L2/L3 hit latencies, read once.
  double l1_ns_;
  double l2_ns_;
  double l3_ns_;
};

}  // namespace approxmem::mem

#endif  // APPROXMEM_MEM_MEMORY_SYSTEM_H_
