// The "mlc-pcm-banked" backend: MLC PCM write models with costs routed
// through mem::MemorySystem (Table 1 cache hierarchy in front of banked PCM
// with write queues). It is the paper's trace-driven simulation run inline:
// the device sees every array access, in program order, as it happens.
//
// Error injection, #P accounting and per-write service latency come from
// the same precise costs and calibrated models as "mlc-pcm": this backend
// hands out the inner backend's unchanged. The *charged* costs become
// address-dependent because ApproxMemory passes cost_system() to every
// array it builds, and the array charges each access there — a read that
// hits L1 costs its L1 latency instead of the flat PCM read latency, and a
// write additionally pays any CPU stall it incurs behind a full bank write
// queue. All arrays
// of one ApproxMemory share one MemorySystem, so bank contention across
// arrays is modeled.
//
// Costs are charged incrementally per access: a write charges its PCM
// service latency plus the write-stall delta its posting caused; queued
// service time that drains later is background work the CPU never waits
// for, matching how the paper's simulator attributes write cost.
#include <memory>

#include "approx/memory_backend.h"
#include "mem/memory_system.h"

namespace approxmem::approx {
namespace {

class BankedPcmBackend final : public MemoryBackend {
 public:
  explicit BankedPcmBackend(const BackendContext& context)
      : inner_(internal::MakePcmBackend(context)),
        system_(std::make_unique<mem::MemorySystem>(
            mem::MemorySystem::PaperDefault())) {}

  std::string_view name() const override { return kBankedPcmBackendName; }
  std::string_view cost_unit() const override { return "ns"; }

  Status Validate(const AllocSpec& spec) const override {
    return inner_->Validate(spec);
  }

  StatusOr<WriteModel*> ModelFor(const AllocSpec& spec) override {
    return inner_->ModelFor(spec);
  }

  PreciseCosts precise_costs() override { return inner_->precise_costs(); }

  double ModelWordErrorRate(const AllocSpec& spec) override {
    return inner_->ModelWordErrorRate(spec);
  }

  double WriteCostRatio(double knob) override {
    return inner_->WriteCostRatio(knob);
  }

  double default_approx_knob() const override {
    return inner_->default_approx_knob();
  }
  double min_knob() const override { return inner_->min_knob(); }
  double precise_knob() const override { return inner_->precise_knob(); }

  mem::MemorySystem* cost_system() override { return system_.get(); }

 private:
  std::unique_ptr<MemoryBackend> inner_;
  std::unique_ptr<mem::MemorySystem> system_;
};

}  // namespace

namespace internal {

std::unique_ptr<MemoryBackend> MakeBankedPcmBackend(
    const BackendContext& context) {
  return std::make_unique<BankedPcmBackend>(context);
}

}  // namespace internal
}  // namespace approxmem::approx
