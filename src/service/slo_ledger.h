// Service-level-objective tracking across wear epochs.
//
// A device-lifetime story needs more than a retirement timeline: the
// operator has to see what aging *costs the tenants*. The SloLedger bins
// every terminal job by the wear epoch it ran in (epoch = retirements on
// its substrate so far: epoch 0 is the fresh device, each retirement
// starts the next) and tracks, per epoch, the latency distribution
// (p50/p99) and the Equation 2 write-reduction — so p99 drift and
// write-savings decay across the device's life are first-class metrics,
// not something scraped from logs.
//
// Two latency timelines per epoch, same split as extsort/async_device:
//  * Wall clock (latencies): reporting-only — host noise, never fed to a
//    digest or a scheduling decision, advisory in bench gates.
//  * Virtual time (virtual_latencies_us): queue-position × modeled service
//    time, computed by the service from deterministic cost ledgers alone,
//    so virtual p50/p99 replay bit-identically at any thread count — the
//    numbers the bench_wear golden CSVs pin byte for byte.
// Everything else in the ledger (job counts, write reductions, epochs) is
// likewise deterministic.
#ifndef APPROXMEM_SERVICE_SLO_LEDGER_H_
#define APPROXMEM_SERVICE_SLO_LEDGER_H_

#include <cstddef>
#include <cstdint>
#include <map>
#include <vector>

namespace approxmem::service {

/// One wear epoch's service-level accounting.
struct SloEpochStats {
  uint64_t jobs_completed = 0;
  uint64_t jobs_failed = 0;
  uint64_t jobs_shed = 0;
  /// Sum of completed jobs' Equation 2 write reductions (mean on report).
  double write_reduction_sum = 0.0;
  /// Wall-clock submit-to-terminal latencies of completed jobs, seconds.
  /// Reporting only.
  std::vector<double> latencies;
  /// Deterministic virtual-time latencies of completed jobs, µs.
  std::vector<double> virtual_latencies_us;

  double MeanWriteReduction() const {
    return jobs_completed > 0
               ? write_reduction_sum / static_cast<double>(jobs_completed)
               : 0.0;
  }
  /// Percentile over the recorded latencies (p in [0, 1]); 0 when empty.
  double LatencyPercentile(double p) const;
  double LatencyP50() const { return LatencyPercentile(0.50); }
  double LatencyP99() const { return LatencyPercentile(0.99); }
  /// Percentile over the virtual-time latencies; 0 when empty.
  double VirtualLatencyPercentile(double p) const;
  double VirtualLatencyP50() const { return VirtualLatencyPercentile(0.50); }
  double VirtualLatencyP99() const { return VirtualLatencyPercentile(0.99); }
};

class SloLedger {
 public:
  /// Records one terminal job. `completed`/`failed`/`shed` are mutually
  /// exclusive; latencies and write_reduction are only read for completed
  /// jobs. `virtual_latency_us` is the deterministic queue-time latency
  /// the service computed on its virtual clock.
  void RecordCompleted(uint64_t epoch, double latency_seconds,
                       double virtual_latency_us, double write_reduction);
  void RecordFailed(uint64_t epoch);
  void RecordShed(uint64_t epoch);

  /// Epoch -> stats, keyed and iterated in epoch order.
  const std::map<uint64_t, SloEpochStats>& epochs() const { return epochs_; }

  /// p99 latency of the last epoch over the first (1.0 when fewer than two
  /// epochs have completed jobs) — the soak's latency-drift metric.
  /// Wall-clock, advisory on shared hosts.
  double P99DriftRatio() const;

  /// Same drift ratio over the deterministic virtual-time latencies —
  /// replays bit-identically, so bench gates can be hard.
  double VirtualP99DriftRatio() const;

  /// Mean write reduction of the first epoch minus the last (positive =
  /// savings decayed as the device aged).
  double WriteReductionDrift() const;

 private:
  std::map<uint64_t, SloEpochStats> epochs_;
};

}  // namespace approxmem::service

#endif  // APPROXMEM_SERVICE_SLO_LEDGER_H_
