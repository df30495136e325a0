// Pluggable memory-technology backends.
//
// The paper evaluates the same sorts on two device technologies (MLC PCM,
// Sections 2-4; approximate spintronic memory, Appendix A). A MemoryBackend
// packages everything the allocation facade needs to know about one
// technology — what precise writes and reads cost, how to build its
// approximate WriteModels, what the calibrated word-error rate is (for the
// health monitor's quarantine threshold), what unit costs are reported in,
// and how the technology's approximation knob behaves — behind one
// interface keyed by a technology-agnostic AllocSpec. ApproxMemory holds
// exactly one backend and never mentions a device name; adding a new device
// model (memristive, DRAM-with-reduced-refresh, ...) is one new backend file
// plus a registry entry.
//
// Built-in backends:
//   mlc-pcm         Monte-Carlo-calibrated MLC PCM (the paper's Table 1/2
//                   substrate); knob = target-range half-width T; unit ns.
//   mlc-pcm-banked  The mlc-pcm costs and write models themselves, plus a
//                   mem::MemorySystem (cache hierarchy + banked PCM with
//                   write queues) that ApproxMemory hands to every array;
//                   the arrays charge each access there, inline; knob = T;
//                   unit ns.
//   spintronic      Appendix A bit-flip model; knob = per-bit write-error
//                   probability (energy saving follows the paper's
//                   operating-point curve); unit energy.
//   dram-precise    Error-free constant-latency baseline; the knob is
//                   ignored; unit ns.
#ifndef APPROXMEM_APPROX_MEMORY_BACKEND_H_
#define APPROXMEM_APPROX_MEMORY_BACKEND_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "approx/write_model.h"
#include "common/status.h"
#include "mlc/calibration.h"
#include "mlc/mlc_config.h"

namespace approxmem::mem {
class MemorySystem;
}  // namespace approxmem::mem

namespace approxmem::approx {

/// Simulation fidelity of approximate writes (honoured by backends whose
/// device model has both a calibrated fast path and a reference path).
enum class SimulationMode {
  /// Samples errors and #P from Monte-Carlo-calibrated tables (default).
  kFast,
  /// Runs the full program-and-verify loop per cell (slow, reference).
  kExact,
};

/// Technology-agnostic description of one allocation request.
struct AllocSpec {
  enum class Domain : uint8_t {
    /// Writes never corrupt; cost is the technology's precise write cost.
    kPrecise,
    /// Writes may corrupt; behaviour set by the technology knob.
    kApprox,
  };

  Domain domain = Domain::kApprox;
  /// The technology's approximation knob: target-range half-width T for
  /// MLC PCM backends, per-bit write-error probability for spintronic.
  /// Ignored for kPrecise specs and by precise-only backends.
  double knob = 0.0;
  /// Number of 32-bit words the allocation will hold.
  size_t n = 0;

  static AllocSpec Precise(size_t n) {
    return AllocSpec{Domain::kPrecise, 0.0, n};
  }
  static AllocSpec Approx(double knob, size_t n) {
    return AllocSpec{Domain::kApprox, knob, n};
  }
};

/// Everything a backend may draw on at construction time. The calibration
/// cache is shared with the owning ApproxMemory (and possibly a whole
/// parallel sweep), so each T still calibrates exactly once per process.
struct BackendContext {
  mlc::MlcConfig mlc;
  SimulationMode mode = SimulationMode::kFast;
  std::shared_ptr<mlc::CalibrationCache> calibration;
  /// Used only when `calibration` is null and the backend needs one.
  uint64_t calibration_trials = 200000;
  uint64_t calibration_seed = 0xca11b7a7e5eedULL;
};

/// One memory technology: its precise costs, an approximate write-model
/// factory, and the technology-specific constants the engine, resilience
/// ladder, and health monitor need.
///
/// Implementations own every WriteModel they hand out and reuse models
/// across allocations with the same spec parameters; a model must stay
/// valid for the backend's lifetime (arrays hold bare pointers).
class MemoryBackend {
 public:
  virtual ~MemoryBackend() = default;

  /// Registry name, e.g. "mlc-pcm".
  virtual std::string_view name() const = 0;

  /// Unit label for cost ledgers: "ns" or "energy".
  virtual std::string_view cost_unit() const = 0;

  /// Whether this technology can serve `spec` (e.g. the PCM backend
  /// rejects out-of-range T).
  virtual Status Validate(const AllocSpec& spec) const = 0;

  /// The approximate write model serving `spec`, owned by the backend, or
  /// null when the backend serves `spec` precisely: every kPrecise spec, and
  /// every spec on a precise-only backend. A null model means the array
  /// stores at precise_costs().
  virtual StatusOr<WriteModel*> ModelFor(const AllocSpec& spec) = 0;

  /// What one precise write and one precise read cost on this technology.
  virtual PreciseCosts precise_costs() = 0;

  /// Calibrated probability that one word write of `spec` stores a wrong
  /// value — the health monitor's quarantine reference rate. Zero for
  /// precise specs.
  virtual double ModelWordErrorRate(const AllocSpec& spec) = 0;

  /// Approximate-to-precise per-write cost ratio at `knob`: the paper's
  /// p(t) for PCM, the energy ratio for spintronic, 1.0 for precise-only
  /// backends. Feeds the Equation 4 write-reduction prediction.
  virtual double WriteCostRatio(double knob) = 0;

  /// The technology's sweet-spot knob (CLI/bench default), e.g. T = 0.055
  /// for MLC PCM.
  virtual double default_approx_knob() const = 0;

  /// Tightest useful knob — the floor of a guard-band escalation ladder.
  virtual double min_knob() const = 0;

  /// Knob value reported for fully precise attempts (diagnostics only).
  virtual double precise_knob() const = 0;

  /// The Table 1 cost substrate, when this backend routes costs through
  /// one (null for flat-cost backends). ApproxMemory passes it to every
  /// array it builds, and the array charges each access there.
  virtual mem::MemorySystem* cost_system() { return nullptr; }
};

/// Factory invoked once per ApproxMemory instance.
using BackendFactory =
    std::unique_ptr<MemoryBackend> (*)(const BackendContext& context);

/// Registers a backend under `name`; returns false (and changes nothing)
/// when the name is already taken. Safe to call from static initializers
/// of plug-in translation units:
///   const bool registered =
///       RegisterMemoryBackend("memristive", MakeMemristiveBackend);
bool RegisterMemoryBackend(std::string_view name, BackendFactory factory);

/// Names of every registered backend, sorted.
std::vector<std::string> RegisteredBackendNames();

bool IsRegisteredBackend(std::string_view name);

/// Instantiates the backend registered under `name`. Unknown names return
/// NotFound listing the registered backends — never a crash.
StatusOr<std::unique_ptr<MemoryBackend>> CreateMemoryBackend(
    std::string_view name, const BackendContext& context);

/// Registry names of the built-in backends.
inline constexpr std::string_view kPcmBackendName = "mlc-pcm";
inline constexpr std::string_view kBankedPcmBackendName = "mlc-pcm-banked";
inline constexpr std::string_view kSpintronicBackendName = "spintronic";
inline constexpr std::string_view kDramPreciseBackendName = "dram-precise";

namespace internal {
// Built-in factories (one per backend_*.cc file), wired into the registry
// by memory_backend.cc so a static library build cannot dead-strip them.
std::unique_ptr<MemoryBackend> MakePcmBackend(const BackendContext& context);
std::unique_ptr<MemoryBackend> MakeBankedPcmBackend(
    const BackendContext& context);
std::unique_ptr<MemoryBackend> MakeSpintronicBackend(
    const BackendContext& context);
std::unique_ptr<MemoryBackend> MakeDramPreciseBackend(
    const BackendContext& context);
}  // namespace internal

}  // namespace approxmem::approx

#endif  // APPROXMEM_APPROX_MEMORY_BACKEND_H_
