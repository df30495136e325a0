// The "dram-precise" backend: an error-free constant-latency baseline.
//
// Every allocation — precise or approximate — is served precisely at
// DRAM-class latencies, so pipelines run end to end with zero
// injected errors and a write-cost ratio of 1. Useful as a control: any
// "write reduction" it reports is pure pipeline overhead, and any
// corruption seen on it comes from the workload or a fault hook, never
// from the device model.
#include <memory>

#include "approx/memory_backend.h"

namespace approxmem::approx {
namespace {

/// Table 1 lists DRAM at a flat 50 ns access latency for reads and writes.
constexpr double kDramAccessNs = 50.0;

class DramPreciseBackend final : public MemoryBackend {
 public:
  explicit DramPreciseBackend(const BackendContext& /*context*/) {}

  std::string_view name() const override { return kDramPreciseBackendName; }
  std::string_view cost_unit() const override { return "ns"; }

  Status Validate(const AllocSpec& /*spec*/) const override {
    return Status::Ok();
  }

  StatusOr<WriteModel*> ModelFor(const AllocSpec& /*spec*/) override {
    return nullptr;
  }

  PreciseCosts precise_costs() override {
    return PreciseCosts{kDramAccessNs, 0.0, kDramAccessNs};
  }

  double ModelWordErrorRate(const AllocSpec& /*spec*/) override {
    return 0.0;
  }

  double WriteCostRatio(double /*knob*/) override { return 1.0; }

  double default_approx_knob() const override { return 0.0; }
  double min_knob() const override { return 0.0; }
  double precise_knob() const override { return 0.0; }
};

}  // namespace

namespace internal {

std::unique_ptr<MemoryBackend> MakeDramPreciseBackend(
    const BackendContext& context) {
  return std::make_unique<DramPreciseBackend>(context);
}

}  // namespace internal
}  // namespace approxmem::approx
