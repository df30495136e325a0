// Banked PCM main-memory model (Table 1).
//
// 8GB PCM organized as 4 ranks x 8 banks with 4KB pages. Each bank has a
// 32-entry write queue and an 8-entry read queue and schedules reads with
// priority over queued writes (writes are posted and drain in the
// background; reads must wait only for the operation currently in service).
// The CPU issues accesses in program order: reads are blocking, writes stall
// only when the target bank's write queue is full.
#ifndef APPROXMEM_MEM_PCM_H_
#define APPROXMEM_MEM_PCM_H_

#include <cstdint>
#include <vector>

#include "common/status.h"

namespace approxmem::mem {

/// Kind of memory access.
enum class AccessKind : uint8_t { kRead = 0, kWrite = 1 };

/// Geometry and timing of the PCM main memory.
struct PcmConfig {
  uint32_t ranks = 4;
  uint32_t banks_per_rank = 8;
  uint64_t page_bytes = 4096;
  uint32_t write_queue_depth = 32;
  uint32_t read_queue_depth = 8;
  double read_latency_ns = 50.0;
  double write_latency_ns = 1000.0;  // Precise write (T = 0.025): 1 us.
  /// Row-buffer model (the "more detailed model of PCM" the paper's
  /// Section 5 discussion calls for): an access to the row currently open
  /// in its bank costs latency x this factor. 1.0 disables the model
  /// (Table 1's uniform latency).
  double row_buffer_hit_factor = 1.0;

  uint32_t TotalBanks() const { return ranks * banks_per_rank; }
  Status Validate() const;
};

/// Observes PCM accesses and degrades faulty ones.
///
/// The testing layer threads one injector through both the array facade
/// (value corruption, approx/fault_hook.h) and this listener (timing
/// degradation of the banked device model): an access that lands on a
/// faulty cell region costs its base latency times the returned factor.
class PcmFaultListener {
 public:
  virtual ~PcmFaultListener() = default;

  /// Returns the service-latency multiplier for this access (>= 1.0
  /// degrades; exactly 1.0 means the region is healthy).
  virtual double OnPcmAccess(uint64_t address, AccessKind kind) = 0;
};

/// Aggregate results of the accesses issued so far.
struct PcmStats {
  uint64_t reads = 0;
  uint64_t writes = 0;
  uint64_t faulted_accesses = 0;  // Accesses degraded by a fault listener.
  double total_read_latency_ns = 0.0;   // Service time seen by the CPU.
  double total_write_latency_ns = 0.0;  // Bank service time of all writes.
  double read_queue_wait_ns = 0.0;      // Waiting behind in-service ops.
  double write_stall_ns = 0.0;          // CPU stalls on full write queues.
  uint64_t write_queue_full_events = 0;
  uint64_t row_buffer_hits = 0;     // Accesses to the bank's open row.
  double completion_time_ns = 0.0;  // When the last queued write drains.
};

/// Event-driven banked PCM simulator with read-priority scheduling.
///
/// Usage: construct, feed accesses via Read()/Write() with monotonically
/// tracked CPU time (the simulator advances the CPU clock internally), then
/// Finish() to drain queues. Stats() reports aggregates.
class PcmSimulator {
 public:
  explicit PcmSimulator(const PcmConfig& config);

  /// Issues a blocking read at the current CPU time; returns the read's
  /// completion latency (wait + service) in ns and advances the CPU clock.
  double Read(uint64_t address);

  /// Posts a write. Stalls the CPU only if the bank's write queue is full.
  void Write(uint64_t address);

  /// Per-write service latency override: approximate banks can be slower or
  /// faster than the precise default (latency scales with avg #P).
  void Write(uint64_t address, double service_latency_ns);

  /// Drains all queues; afterwards Stats().completion_time_ns is final.
  void Finish();

  /// Installs a fault listener degrading the latency of faulty accesses.
  /// Not owned; pass nullptr to detach.
  void SetFaultListener(PcmFaultListener* listener) { faults_ = listener; }

  const PcmStats& Stats() const { return stats_; }
  double cpu_time_ns() const { return cpu_time_ns_; }

  /// Maps a byte address to a bank index: pages are striped across banks
  /// (page-interleaved, as with 4KB pages on a multi-rank module).
  uint32_t BankOf(uint64_t address) const;

  /// Row (page) index of an address within its bank's row-buffer space.
  uint64_t RowOf(uint64_t address) const;

 private:
  struct QueuedWrite {
    double arrival_ns = 0.0;
    double service_ns = 0.0;
    uint64_t row = 0;
  };

  struct Bank {
    // Completion time of the operation currently in service (reads bypass
    // queued writes but not this).
    double inflight_end_ns = 0.0;
    // The row (page) currently held in the bank's row buffer; kNoRow when
    // nothing is open.
    uint64_t open_row = ~uint64_t{0};
    // Posted writes not yet started: a ring of write_queue_depth slots,
    // `queued` of them live from `head` on.
    std::vector<QueuedWrite> ring;
    uint32_t head = 0;
    uint32_t queued = 0;

    const QueuedWrite& Front() const { return ring[head]; }
    void PopFront() {
      head = head + 1 == ring.size() ? 0 : head + 1;
      --queued;
    }
    void PushBack(const QueuedWrite& write) {
      size_t slot = head + queued;
      if (slot >= ring.size()) slot -= ring.size();
      ring[slot] = write;
      ++queued;
    }
  };

  // Effective service latency of an access to `row` on `bank`, applying
  // the row-buffer hit factor, and opening the row.
  double ServiceLatency(Bank& bank, uint64_t row, double base_ns);

  // Starts queued writes that can begin at or before `now` on `bank`.
  void PumpBank(Bank& bank, double now);
  // Forces the oldest queued write on `bank` to complete; returns its
  // completion time.
  double DrainOneWrite(Bank& bank);

  // Latency multiplier from the fault listener (1.0 when none); counts the
  // access as faulted when degraded.
  double FaultFactor(uint64_t address, AccessKind kind);

  PcmConfig config_;
  uint32_t page_shift_;  // log2(page_bytes)
  // True when TotalBanks() is a power of two: BankOf masks, else divides.
  bool banks_pow2_;
  std::vector<Bank> banks_;
  PcmStats stats_;
  PcmFaultListener* faults_ = nullptr;
  double cpu_time_ns_ = 0.0;
};

}  // namespace approxmem::mem

#endif  // APPROXMEM_MEM_PCM_H_
