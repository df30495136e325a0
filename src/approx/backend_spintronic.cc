// The "spintronic" backend: Appendix A approximate spintronic memory.
//
// Knob semantics: the AllocSpec knob is the per-bit write-error
// probability. The energy saving at a knob follows the paper's four
// operating points — knobs matching an operating point exactly reproduce
// it (bit for bit, including PaperSpintronicConfigs' energy constants);
// intermediate knobs interpolate the saving linearly in log10(error rate)
// between neighbouring points and clamp outside [1e-7, 1e-4]. That makes
// the knob continuous, so guard-band escalation (knob shrinking) moves
// along the technology's energy/error trade-off curve instead of dying on
// a four-point lookup.
#include <cmath>
#include <memory>
#include <utility>
#include <vector>

#include "approx/memory_backend.h"
#include "approx/spintronic.h"
#include "approx/write_model.h"

namespace approxmem::approx {
namespace {

/// Saving fraction at per-bit error probability `p` along the paper's
/// operating-point curve (log10-linear between points, clamped outside).
double SavingForBitErrorProb(double p) {
  const auto points = PaperSpintronicConfigs();
  if (p <= points.front().bit_error_prob) {
    return points.front().energy_saving_per_write;
  }
  if (p >= points.back().bit_error_prob) {
    return points.back().energy_saving_per_write;
  }
  for (size_t i = 0; i + 1 < points.size(); ++i) {
    const double lo = points[i].bit_error_prob;
    const double hi = points[i + 1].bit_error_prob;
    if (p > hi) continue;
    const double alpha = (std::log10(p) - std::log10(lo)) /
                         (std::log10(hi) - std::log10(lo));
    return points[i].energy_saving_per_write +
           alpha * (points[i + 1].energy_saving_per_write -
                    points[i].energy_saving_per_write);
  }
  return points.back().energy_saving_per_write;
}

/// The operating point serving knob `p`: a paper point when `p` matches
/// one exactly, otherwise an interpolated configuration.
SpintronicConfig ConfigForKnob(double p) {
  for (const SpintronicConfig& config : PaperSpintronicConfigs()) {
    if (config.bit_error_prob == p) return config;
  }
  SpintronicConfig config;
  config.bit_error_prob = p;
  config.energy_saving_per_write = p > 0.0 ? SavingForBitErrorProb(p) : 0.0;
  return config;
}

class SpintronicBackend final : public MemoryBackend {
 public:
  explicit SpintronicBackend(const BackendContext& /*context*/) {}

  std::string_view name() const override { return kSpintronicBackendName; }
  std::string_view cost_unit() const override { return "energy"; }

  Status Validate(const AllocSpec& spec) const override {
    if (spec.domain == AllocSpec::Domain::kPrecise) return Status::Ok();
    return ConfigForKnob(spec.knob).Validate();
  }

  StatusOr<WriteModel*> ModelFor(const AllocSpec& spec) override {
    if (spec.domain == AllocSpec::Domain::kPrecise) return nullptr;
    const SpintronicConfig config = ConfigForKnob(spec.knob);
    const Status status = config.Validate();
    if (!status.ok()) return status;
    for (auto& [knob, model] : approx_models_) {
      if (knob == spec.knob) return model.get();
    }
    approx_models_.emplace_back(
        spec.knob, std::make_unique<SpintronicWriteModel>(config));
    return approx_models_.back().second.get();
  }

  /// The reference operating point's unit-energy precise write and read.
  PreciseCosts precise_costs() override {
    const SpintronicConfig reference;
    return PreciseCosts{reference.precise_write_energy, 0.0,
                        reference.read_energy};
  }

  double ModelWordErrorRate(const AllocSpec& spec) override {
    if (spec.domain == AllocSpec::Domain::kPrecise) return 0.0;
    // One word write errs when any of its 32 independent bits flips.
    return 1.0 - std::pow(1.0 - spec.knob, 32.0);
  }

  double WriteCostRatio(double knob) override {
    const SpintronicConfig config = ConfigForKnob(knob);
    return config.ApproxWriteEnergy() / config.precise_write_energy;
  }

  /// The 33%-saving operating point — the paper's best for approx-refine.
  double default_approx_knob() const override { return 1e-5; }
  /// The most conservative paper operating point (5% saving, 1e-7/bit).
  double min_knob() const override { return 1e-7; }
  double precise_knob() const override { return 0.0; }

 private:
  std::vector<std::pair<double, std::unique_ptr<WriteModel>>> approx_models_;
};

}  // namespace

namespace internal {

std::unique_ptr<MemoryBackend> MakeSpintronicBackend(
    const BackendContext& context) {
  return std::make_unique<SpintronicBackend>(context);
}

}  // namespace internal
}  // namespace approxmem::approx
