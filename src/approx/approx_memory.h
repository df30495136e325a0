// Hybrid precise/approximate memory: the allocation facade.
//
// ApproxMemory plays the role of the paper's hybrid memory system (Fig. 3):
// it hands out precise and approximate arrays that share one experiment
// seed and one calibration cache. It is the only way to construct arrays,
// so all accounting flows through one place — but it no longer knows any
// device names: the memory technology is a pluggable MemoryBackend chosen
// by Options::backend (see memory_backend.h), and ApproxMemory itself is
// only allocation + RNG streams + health monitoring.
#ifndef APPROXMEM_APPROX_APPROX_MEMORY_H_
#define APPROXMEM_APPROX_APPROX_MEMORY_H_

#include <cstdint>
#include <memory>
#include <string>

#include "approx/approx_array.h"
#include "approx/fault_hook.h"
#include "approx/health_monitor.h"
#include "approx/memory_backend.h"
#include "approx/write_model.h"
#include "common/random.h"
#include "mlc/calibration.h"
#include "mlc/mlc_config.h"

namespace approxmem::approx {

/// Chooses where in the flat simulated address space each allocation lands.
///
/// By default ApproxMemory bump-allocates monotonically; a service that
/// shares one substrate between many jobs can install a policy that places
/// allocations deliberately — e.g. rotating hot allocations across PCM
/// banks by accumulated wear (src/service/wear_placement.h). The policy is
/// consulted once per allocation attempt and owns all of its cursors, so it
/// must always make progress: two PlaceSpan calls never return overlapping
/// live regions.
class PlacementPolicy {
 public:
  virtual ~PlacementPolicy() = default;

  /// Returns the base address for a `span`-byte allocation and advances the
  /// policy's own cursor(s). `span` is already page-rounded by the caller.
  virtual uint64_t PlaceSpan(uint64_t span) = 0;

  /// Notifies the policy that the health monitor quarantined
  /// [base, base + span): the region must never be handed out again, and
  /// the next PlaceSpan must route the retried allocation elsewhere.
  virtual void OnQuarantine(uint64_t base, uint64_t span) = 0;
};

/// Factory and owner of the backend, calibrations, and the RNG tree.
class ApproxMemory {
 public:
  struct Options {
    /// Name of the memory technology serving every allocation; see
    /// memory_backend.h for the built-ins. Must be one of them (checked at
    /// construction; validate early with CheckBackendName for a
    /// recoverable error).
    std::string backend = std::string(kPcmBackendName);
    mlc::MlcConfig mlc;
    SimulationMode mode = SimulationMode::kFast;
    uint64_t calibration_trials = 200000;
    uint64_t seed = 42;
    /// Optional fault-injection hook observing every array access (see
    /// fault_hook.h). Not owned; must outlive the memory and its arrays.
    MemoryFaultHook* fault_hook = nullptr;
    /// Optional shared calibration cache. When set, this memory reuses the
    /// given cache (which is thread-safe and keys every entry's substream
    /// by (cache seed, T)) instead of building its own — so the engines of
    /// a parallel (algorithm x T) sweep calibrate each T exactly once
    /// between them. When null, a private cache is created with seed
    /// `seed ^ 0xca11b7a7e5eed`.
    std::shared_ptr<mlc::CalibrationCache> shared_calibration;
    /// Cost multiplier for writes at (previous index + 1). The paper's
    /// Section 5 discussion conjectures that modeling PCM's cheaper
    /// sequential writes raises the approx-refine gain (the refine stage is
    /// mostly sequential); 1.0 keeps the paper's uniform-latency model.
    /// Applied by the array layer, uniformly across backends.
    double sequential_write_discount = 1.0;
    /// Online health monitoring: allocation-time canary probes and region
    /// quarantine (see health_monitor.h). Disabled by default so that
    /// unmonitored experiments keep their exact RNG stream assignment.
    /// Applied by the allocation path, uniformly across backends.
    HealthOptions health;
    /// Optional allocation-placement policy (see PlacementPolicy above).
    /// Null preserves the historical monotonic bump allocator exactly —
    /// including its quarantine-skip stride — so every existing experiment
    /// stays byte-identical. Not owned; must outlive the memory.
    PlacementPolicy* placement = nullptr;
  };

  explicit ApproxMemory(const Options& options);

  /// Allocates an array per `spec` on the configured backend. The spec
  /// must pass the backend's Validate (CHECK-enforced; callers wanting a
  /// recoverable error validate first via backend().Validate(spec)).
  ApproxArrayU32 Allocate(const AllocSpec& spec);

  /// Allocates an array in the backend's precise domain.
  ApproxArrayU32 NewPreciseArray(size_t n);

  /// Allocates an array in the backend's approximate domain at `knob`
  /// (target-range half-width T for PCM backends, per-bit error
  /// probability for spintronic).
  ApproxArrayU32 NewApproxArray(size_t n, double knob);

  /// Rebases the allocation RNG tree onto a substream derived from
  /// (Options::seed, stream_key): every subsequent allocation splits its
  /// array stream from the rebased generator. A multi-job service calls
  /// this once per job with a key that identifies the job alone, so a job's
  /// simulated error draws depend only on (seed, key) — never on how many
  /// allocations earlier jobs on the same substrate consumed. Single-run
  /// experiments never call this and keep their historical streams.
  void BeginJobStream(uint64_t stream_key);

  /// The technology backend serving this memory's allocations.
  MemoryBackend& backend() { return *backend_; }
  const MemoryBackend& backend() const { return *backend_; }

  /// Approximate-to-precise write-cost ratio at `knob` — the paper's p(t)
  /// on PCM backends, the energy ratio on spintronic.
  double WriteCostRatio(double knob) { return backend_->WriteCostRatio(knob); }

  /// Calibration access for the cost model and benches (PCM substrate).
  mlc::CalibrationCache& calibration() { return *calibration_; }

  /// p(t) = avg #P at t / avg #P at the precise T (Section 2.2).
  double PvRatio(double t) { return calibration_->PvRatio(t); }

  const mlc::MlcConfig& mlc_config() const { return options_.mlc; }
  const Options& options() const { return options_; }

  /// The online health monitor (no-op object when Options::health is
  /// disabled); see health_monitor.h for canary and quarantine semantics.
  const HealthMonitor& health() const { return health_; }

 private:
  /// Hands out an array over the next healthy address region, storing
  /// through `model`, or at `precise` costs when `model` is null. With
  /// monitoring disabled this is plain bump allocation; with it enabled,
  /// candidate regions are canary-probed against `model_word_error_rate`
  /// and quarantined/skipped (with exponentially growing stride) when the
  /// observed rate breaches the threshold.
  ApproxArrayU32 AllocateArray(size_t n, WriteModel* model,
                               const PreciseCosts& precise,
                               double model_word_error_rate);

  Options options_;
  std::shared_ptr<mlc::CalibrationCache> calibration_;
  std::unique_ptr<MemoryBackend> backend_;
  Rng rng_;
  HealthMonitor health_;
  uint64_t next_base_address_ = 0;
};

}  // namespace approxmem::approx

#endif  // APPROXMEM_APPROX_APPROX_MEMORY_H_
