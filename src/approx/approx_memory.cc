#include "approx/approx_memory.h"

#include <utility>

#include "common/check.h"
#include "common/hash.h"

namespace approxmem::approx {
namespace {

BackendContext MakeBackendContext(
    const ApproxMemory::Options& options,
    std::shared_ptr<mlc::CalibrationCache> calibration) {
  BackendContext context;
  context.mlc = options.mlc;
  context.mode = options.mode;
  context.calibration = std::move(calibration);
  context.calibration_trials = options.calibration_trials;
  context.calibration_seed = options.seed ^ 0xca11b7a7e5eedULL;
  return context;
}

}  // namespace

ApproxMemory::ApproxMemory(const Options& options)
    : options_(options),
      calibration_(options.shared_calibration
                       ? options.shared_calibration
                       : std::make_shared<mlc::CalibrationCache>(
                             options.mlc.WithT(options.mlc.precise_t_width),
                             options.calibration_trials,
                             /*seed=*/options.seed ^ 0xca11b7a7e5eedULL)),
      rng_(options.seed),
      health_(options.health) {
  StatusOr<std::unique_ptr<MemoryBackend>> backend =
      CreateMemoryBackend(options.backend,
                          MakeBackendContext(options, calibration_));
  APPROXMEM_CHECK_OK(backend.status());
  backend_ = std::move(*backend);
}

void ApproxMemory::BeginJobStream(uint64_t stream_key) {
  // SplitMix64 diffusion of the key so adjacent job ids land on
  // well-separated generator seeds.
  rng_ = Rng(options_.seed ^ Mix64(stream_key + kSplitMix64Gamma));
}

ApproxArrayU32 ApproxMemory::AllocateArray(size_t n, WriteModel* model,
                                           const PreciseCosts& precise,
                                           double model_word_error_rate) {
  const uint64_t span = ((n * 4 + 4095) / 4096 + 1) * 4096;
  // Canaries and data alike reach the backend's device, if it has one.
  const auto make_array = [&](size_t words, uint64_t base) {
    return ApproxArrayU32(words, model, rng_.Split(), base,
                          options_.sequential_write_discount,
                          options_.fault_hook, backend_->cost_system(),
                          precise);
  };
  const auto place = [&]() {
    if (options_.placement != nullptr) {
      return options_.placement->PlaceSpan(span);
    }
    const uint64_t base = next_base_address_;
    next_base_address_ += span;
    return base;
  };
  if (!health_.enabled()) {
    return make_array(n, place());
  }
  // Canary-probe candidate regions. A quarantined candidate is reported to
  // the placement policy (OnQuarantine), which owns every cursor and routes
  // the retry to another bank/region; the bump allocator instead skips past
  // it with a stride that doubles per consecutive failure, so large
  // degraded regions are escaped in O(log size) probes.
  constexpr uint32_t kWords = HealthMonitor::kCanaryWords;
  for (int attempt = 0;; ++attempt) {
    const uint64_t base = place();
    health_.RecordRegionProbed();
    // Sentinels interleave with the allocation: kWords canary words at the
    // region head (sharing the data array's first addresses) and at the
    // tail of the region's last page. Probe costs land in the monitor's own
    // ledger, never in the workload's.
    const uint64_t tail_base = base + span - uint64_t{kWords} * 4u;
    ApproxArrayU32 head = make_array(kWords, base);
    ApproxArrayU32 tail = make_array(kWords, tail_base);
    const uint64_t errors =
        health_.ProbeSite(head) + health_.ProbeSite(tail);
    const double observed = static_cast<double>(errors) / (2.0 * kWords);
    if (health_.WithinThreshold(observed, model_word_error_rate) ||
        attempt >= HealthMonitor::kMaxAllocRetries) {
      return make_array(n, base);
    }
    health_.RecordQuarantine(base, span);
    health_.RecordRetry();
    if (options_.placement != nullptr) {
      options_.placement->OnQuarantine(base, span);
    } else {
      // Back off past the quarantined region, doubling the stride while
      // consecutive candidates keep failing (capped to avoid overflow).
      const int shift = attempt < 20 ? attempt : 20;
      next_base_address_ = base + (span << shift);
    }
  }
}

ApproxArrayU32 ApproxMemory::Allocate(const AllocSpec& spec) {
  StatusOr<WriteModel*> model = backend_->ModelFor(spec);
  APPROXMEM_CHECK_OK(model.status());
  // The modeled rate only matters to the canary threshold; skipping it when
  // monitoring is off also skips any calibration it would trigger.
  const double model_word_error_rate =
      health_.enabled() ? backend_->ModelWordErrorRate(spec) : 0.0;
  const PreciseCosts precise =
      *model == nullptr ? backend_->precise_costs() : PreciseCosts{};
  return AllocateArray(spec.n, *model, precise, model_word_error_rate);
}

ApproxArrayU32 ApproxMemory::NewPreciseArray(size_t n) {
  return Allocate(AllocSpec::Precise(n));
}

ApproxArrayU32 ApproxMemory::NewApproxArray(size_t n, double knob) {
  return Allocate(AllocSpec::Approx(knob, n));
}

}  // namespace approxmem::approx
