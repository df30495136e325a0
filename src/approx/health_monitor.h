// Online substrate health monitoring: canary probing and region quarantine.
//
// The calibrated error model tells the engine how often approximate writes
// *should* err; it says nothing about a substrate that misbehaves beyond
// the model (a drifting bank, a stuck cell region — modeled here by fault
// injection). The HealthMonitor closes that gap at allocation time: before
// ApproxMemory hands out an array, a few sentinel (canary) words at the
// head and the tail of the candidate address region are written through
// the region's own write model — and any attached fault hook — then read
// back. The mismatch rate is an online estimate of the region's *observed*
// raw word-error rate. When it exceeds the calibrated model rate by a
// configurable factor, the region is quarantined: recorded as degraded,
// excluded from all future allocations (the allocator never revisits it),
// and the allocation is retried further along the address space with an
// exponentially growing stride so even large bad regions are escaped in
// O(log size) probes.
//
// All canary traffic is charged to an explicit ledger (HealthStats::
// canary_costs) so resilient executions can keep their cumulative cost
// accounting honest. Probing is deterministic: canary patterns are fixed
// functions of the canary index, and each probe array draws its RNG stream
// from the owning ApproxMemory exactly like a data array would.
#ifndef APPROXMEM_APPROX_HEALTH_MONITOR_H_
#define APPROXMEM_APPROX_HEALTH_MONITOR_H_

#include <cstdint>

#include "approx/approx_array.h"
#include "approx/memory_stats.h"

namespace approxmem::approx {

/// Configuration of allocation-time canary probing. Disabled by default:
/// monitoring consumes RNG substreams and adds (tiny but nonzero) probe
/// costs, so opting in keeps unmonitored experiments bit-identical to the
/// paper's setup.
struct HealthOptions {
  bool enabled = false;
};

/// Monitoring counters plus the probe-traffic cost ledger.
struct HealthStats {
  uint64_t canary_writes = 0;
  uint64_t canary_errors = 0;
  uint64_t regions_probed = 0;
  uint64_t regions_quarantined = 0;
  uint64_t allocation_retries = 0;
  /// Honest accounting of all canary reads/writes (same units as the data
  /// arrays' ledgers). degraded_regions mirrors regions_quarantined so the
  /// marker propagates into aggregated MemoryStats.
  MemoryStats canary_costs;
};

class HealthMonitor {
 public:
  /// Canary words written and read back per probe site; every allocation
  /// probes two sites (head and tail of the candidate region).
  static constexpr uint32_t kCanaryWords = 8;
  /// Quarantine when the observed word-error rate exceeds
  /// kQuarantineFactor * max(model word-error rate, kErrorFloor).
  static constexpr double kQuarantineFactor = 8.0;
  /// Absolute rate floor so near-zero model rates (precise memory, tight
  /// T) do not quarantine a region over one unlucky canary.
  static constexpr double kErrorFloor = 0.02;
  /// Candidate regions tried before giving up and accepting the last one
  /// (an allocation must always succeed; a persistently unhealthy address
  /// space degrades to model-blind operation rather than failing).
  static constexpr int kMaxAllocRetries = 16;

  explicit HealthMonitor(const HealthOptions& options) : options_(options) {}

  bool enabled() const { return options_.enabled; }
  const HealthOptions& options() const { return options_; }
  const HealthStats& stats() const { return stats_; }

  /// Writes deterministic canary patterns into every slot of `canaries`
  /// (a scratch array the caller allocated over the candidate region),
  /// reads them back, and returns the number of mismatching words. Probe
  /// traffic is accumulated into stats().canary_costs.
  uint64_t ProbeSite(ApproxArrayU32& canaries);

  /// Whether `observed_rate` stays within the quarantine threshold for a
  /// region whose calibrated model word-error rate is `model_rate`.
  bool WithinThreshold(double observed_rate, double model_rate) const {
    const double reference =
        model_rate > kErrorFloor ? model_rate : kErrorFloor;
    return observed_rate <= kQuarantineFactor * reference;
  }

  /// Counts one quarantined candidate region. The allocator never revisits
  /// it: the placement policy or the bump stride routes the retry past it.
  void RecordQuarantine() {
    ++stats_.regions_quarantined;
    ++stats_.canary_costs.degraded_regions;
  }
  void RecordRetry() { ++stats_.allocation_retries; }
  void RecordRegionProbed() { ++stats_.regions_probed; }

 private:
  HealthOptions options_;
  HealthStats stats_;
};

}  // namespace approxmem::approx

#endif  // APPROXMEM_APPROX_HEALTH_MONITOR_H_
