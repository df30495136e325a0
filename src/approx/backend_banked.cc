// The "mlc-pcm-banked" backend: MLC PCM write models with costs routed
// through mem::MemorySystem (Table 1 cache hierarchy in front of banked PCM
// with write queues). It is the paper's trace-driven simulation run inline:
// the device sees every array access, in program order, as it happens.
//
// This closes the flat-cost vs bank-simulator split: error injection,
// #P accounting, and per-write service latency come from the same
// calibrated models as "mlc-pcm", while the *charged* costs become
// address-dependent — a read that hits L1 costs its L1 latency instead of
// the flat PCM read latency, and a write additionally pays any CPU stall
// it incurs behind a full bank write queue. All arrays of one ApproxMemory
// share one MemorySystem, so bank contention across arrays is modeled.
//
// Costs are charged incrementally per access: a write charges its PCM
// service latency plus the write-stall delta its posting caused; queued
// service time that drains later is background work the CPU never waits
// for, matching how the paper's simulator attributes write cost.
#include <memory>
#include <utility>
#include <vector>

#include "approx/memory_backend.h"
#include "approx/write_model.h"
#include "mem/memory_system.h"

namespace approxmem::approx {
namespace {

/// Wraps one flat-cost model; same stored values and #P, banked costs.
class BankedWriteModel final : public WriteModel {
 public:
  BankedWriteModel(WriteModel* inner, mem::MemorySystem* system)
      : inner_(inner), system_(system) {}

  // Stored values, #P and draws are the inner model's, address-free; the
  // array then charges each word through ChargeWriteAt in write order.
  WordWriteOutcome Write(uint32_t intended, Rng& rng) override {
    return inner_->Write(intended, rng);
  }
  void WriteBatch(const uint32_t* intended, size_t count, Rng& rng,
                  WordWriteOutcome* outcomes) override {
    inner_->WriteBatch(intended, count, rng, outcomes);
  }

  double ChargeWriteAt(uint64_t address, double cost) override {
    const double stall_before = system_->pcm().Stats().write_stall_ns;
    system_->Write(address, cost);
    return cost + (system_->pcm().Stats().write_stall_ns - stall_before);
  }

  double ReadCost() const override { return inner_->ReadCost(); }
  double ReadCostAt(uint64_t address) override {
    return system_->Read(address);
  }
  bool AddressSensitive() const override { return true; }
  std::string_view CostUnit() const override { return inner_->CostUnit(); }
  bool IsPrecise() const override { return inner_->IsPrecise(); }

 private:
  WriteModel* inner_;
  mem::MemorySystem* system_;
};

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
    StatusOr<WriteModel*> flat = inner_->ModelFor(spec);
    if (!flat.ok()) return flat.status();
    for (auto& [inner_model, banked] : models_) {
      if (inner_model == *flat) return banked.get();
    }
    models_.emplace_back(
        *flat, std::make_unique<BankedWriteModel>(*flat, system_.get()));
    return models_.back().second.get();
  }

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
  // One banked wrapper per distinct inner model (inner caches per spec).
  std::vector<std::pair<WriteModel*, std::unique_ptr<WriteModel>>> models_;
};

}  // namespace

namespace internal {

std::unique_ptr<MemoryBackend> MakeBankedPcmBackend(
    const BackendContext& context) {
  return std::make_unique<BankedPcmBackend>(context);
}

}  // namespace internal
}  // namespace approxmem::approx
