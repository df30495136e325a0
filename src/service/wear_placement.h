// Wear-aware allocation placement: rotate hot allocations across banks.
//
// PCM cells wear out per program-and-verify pulse, so a long-running
// service that keeps allocating over the same addresses concentrates wear
// exactly where traffic is hottest. WearPlacement implements the
// approx::PlacementPolicy hook with a bank-rotation strategy: the flat
// simulated address space is carved into `banks` giant lanes, every
// allocation is placed in the currently least-worn bank, and the owning
// shard charges each completed job's P&V-iteration ledger back to the
// banks the job actually touched (merge-on-report). Quarantines reported
// by the health monitor add a wear penalty to the afflicted bank, so
// rotation drifts away from degraded banks — the service's use of the
// PR-3 quarantine ledger.
//
// With an EnduranceLedger attached (approx/endurance.h), placement also
// closes the device-lifetime loop: every charge feeds the per-bank P&V
// budget, every quarantine counts toward canary condemnation, and banks
// the ledger retires are permanently excluded from PlaceSpan — the
// substrate genuinely shrinks as it ages.
//
// One WearPlacement serves one shard substrate and is driven serially by
// that shard (the service never runs two jobs of a shard concurrently),
// so the policy is deliberately lock-free; it must not be shared across
// shards.
#ifndef APPROXMEM_SERVICE_WEAR_PLACEMENT_H_
#define APPROXMEM_SERVICE_WEAR_PLACEMENT_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "approx/approx_memory.h"
#include "approx/endurance.h"

namespace approxmem::service {

struct WearLevelOptions {
  /// Bank lanes the address space is carved into.
  int banks = 8;
};

/// Per-bank wear accounting.
struct BankWear {
  /// Next free byte offset inside the bank's lane.
  uint64_t cursor = 0;
  uint64_t bytes_placed = 0;
  uint64_t allocations = 0;
  uint64_t quarantined_regions = 0;
  /// Charged wear: P&V iterations attributed to this bank plus quarantine
  /// penalties. The placement key.
  double wear = 0.0;
};

class WearPlacement final : public approx::PlacementPolicy {
 public:
  /// `endurance` is optional and not owned (the service shares one ledger
  /// per shard between placement and the wear-error hook); when set, its
  /// bank count must match `options.banks`.
  explicit WearPlacement(const WearLevelOptions& options,
                         approx::EnduranceLedger* endurance = nullptr);

  // approx::PlacementPolicy:
  uint64_t PlaceSpan(uint64_t span) override;
  void OnQuarantine(uint64_t base, uint64_t span) override;

  /// Marks the start of one job's allocations; the spans placed until the
  /// next BeginJob are the attribution targets of ChargeJobCost. Also
  /// ticks the endurance ledger's job-count virtual time.
  void BeginJob();

  /// Distributes `pv_iterations` of observed wear over the banks the
  /// current job placed allocations in, proportional to bytes placed —
  /// the merge-on-report half of the rotation loop. Jobs whose spans are
  /// all zero bytes split the charge equally across their banks; jobs
  /// that placed nothing at all accrue to unattributed_wear() — the
  /// charge is never dropped and never divides by zero.
  void ChargeJobCost(double pv_iterations);

  const std::vector<BankWear>& banks() const { return banks_; }
  int BankOf(uint64_t address) const;
  uint64_t quarantine_events() const { return quarantine_events_; }

  /// Wear charged by jobs that placed no spans (charged but unattributable
  /// to any bank); kept so the wear ledger stays conservative.
  double unattributed_wear() const { return unattributed_wear_; }

  /// The endurance ledger placement feeds, or null when lifetime modeling
  /// is off.
  const approx::EnduranceLedger* endurance() const { return endurance_; }

  /// Banks still placeable: all of them without an endurance ledger,
  /// otherwise the ledger's live count.
  int LiveBankCount() const;
  /// True when every bank is retired; PlaceSpan still makes progress (the
  /// policy contract) but the owner should stop admitting work here.
  bool SubstrateExhausted() const { return LiveBankCount() == 0; }

  /// Max-over-mean charged wear across banks that ever held an allocation;
  /// 1.0 is perfectly level, `banks` is fully concentrated. The soak
  /// bench's wear-leveling effectiveness metric.
  double WearImbalance() const;

  /// Width of one bank lane in the flat simulated space (1 TiB: far more
  /// than any soak run allocates, so a lane never overflows).
  static constexpr uint64_t kBankLaneBytes = uint64_t{1} << 40;
  /// Wear units (P&V iterations) added to a bank per quarantined region,
  /// steering rotation away from substrate neighborhoods the health
  /// monitor flagged.
  static constexpr double kQuarantineWearPenalty = 10000.0;

 private:
  WearLevelOptions options_;
  approx::EnduranceLedger* endurance_;
  std::vector<BankWear> banks_;
  /// (bank, bytes) placements since the last BeginJob.
  std::vector<std::pair<int, uint64_t>> current_job_spans_;
  uint64_t quarantine_events_ = 0;
  double unattributed_wear_ = 0.0;
};

}  // namespace approxmem::service

#endif  // APPROXMEM_SERVICE_WEAR_PLACEMENT_H_
