// The "mlc-pcm" and "mlc-pcm-banked" backends: Monte-Carlo-calibrated MLC
// PCM (Sections 2-4).
//
// Knob semantics: the AllocSpec knob is the target-range half-width T.
// Approximate write latency scales with the calibrated avg #P relative to
// the precise configuration, anchored at the Table 1 precise write latency.
//
// "mlc-pcm-banked" is the same backend built with its own
// mem::MemorySystem (Table 1 cache hierarchy in front of banked PCM with
// write queues) as cost_system(): the paper's trace-driven simulation run
// inline. Error injection, #P and per-write service latency are unchanged;
// ApproxMemory passes the device to every array it builds, and the array
// charges each access there, so charged costs become address-dependent — a
// read that hits L1 costs its L1 latency, and a write additionally pays any
// CPU stall its posting caused behind a full bank write queue. Queued
// service time that drains later is background work the CPU never waits
// for. All arrays of one ApproxMemory share the device, so bank contention
// across arrays is modeled.
#include <algorithm>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "approx/memory_backend.h"
#include "approx/write_model.h"
#include "common/check.h"
#include "mem/memory_system.h"
#include "mlc/calibration.h"
#include "mlc/cell.h"
#include "mlc/word_codec.h"

namespace approxmem::approx {
namespace {

/// Approximate PCM, exact path: full per-cell program-and-verify loops.
class ExactPcmWriteModel final : public WriteModel {
 public:
  ExactPcmWriteModel(const mlc::MlcConfig& config, double ns_per_iteration)
      : config_(config), ns_per_iteration_(ns_per_iteration) {}

  WordWriteOutcome Write(uint32_t intended, Rng& rng) override {
    const int cells = config_.CellsPerWord();
    const mlc::WordLevels levels = mlc::EncodeWord(intended, config_);
    mlc::WordLevels read_levels{};
    uint64_t iterations = 0;
    for (int c = 0; c < cells; ++c) {
      const mlc::CellWriteResult w =
          mlc::WriteCell(levels[static_cast<size_t>(c)], config_, rng);
      iterations += w.iterations;
      read_levels[static_cast<size_t>(c)] =
          static_cast<uint8_t>(mlc::ReadCell(w.analog, config_, rng));
    }
    WordWriteOutcome outcome;
    outcome.stored = mlc::DecodeWord(read_levels, config_);
    // Word write latency scales with the mean per-cell #P (cells are
    // programmed in parallel but P&V energy/latency follows avg #P; this is
    // the paper's p(t) convention).
    outcome.cost = static_cast<double>(iterations) / cells *
                   ns_per_iteration_;
    outcome.pv_iterations = static_cast<double>(iterations);
    return outcome;
  }
  double ReadCost() const override { return config_.read_latency_ns; }

 private:
  mlc::MlcConfig config_;
  double ns_per_iteration_;
};

/// Approximate PCM, fast path: calibrated per-level tables.
///
/// Write() is the one-word kernel: the sampler's table stats give the cost
/// and #P, one uniform decides whether the word errs (drawn only when its
/// error probability is positive), and a hit falls back to the per-cell
/// conditional sampler. WriteBatch() runs the same per-word expressions
/// over table stats computed a block at a time, so it draws exactly the
/// per-word sequence: the scalar Set path and the batched SetRange/scatter
/// paths store, charge and draw the same.
class FastPcmWriteModel final : public WriteModel {
 public:
  FastPcmWriteModel(const mlc::CellCalibration& calibration,
                    double ns_per_iteration)
      : calibration_(calibration),
        config_(calibration.config()),
        sampler_(calibration),
        ns_per_iteration_(ns_per_iteration) {}

  WordWriteOutcome Write(uint32_t intended, Rng& rng) override {
    const mlc::BatchErrorSampler::WordStats stats = sampler_.StatsFor(intended);
    WordWriteOutcome outcome;
    outcome.stored = intended;
    outcome.cost = stats.pv_sum / config_.CellsPerWord() * ns_per_iteration_;
    outcome.pv_iterations = stats.pv_sum;
    const double word_error = 1.0 - stats.no_error;
    if (word_error > 0.0 && rng.UniformDouble() < word_error) {
      outcome.stored = SampleCorruptedWord(mlc::EncodeWord(intended, config_),
                                           stats.no_error, rng);
    }
    return outcome;
  }

  void WriteBatch(const uint32_t* intended, size_t count, Rng& rng,
                  WordWriteOutcome* outcomes) override {
    const int cells = config_.CellsPerWord();
    constexpr size_t kChunkWords = 64;
    mlc::BatchErrorSampler::WordStats stats[kChunkWords];
    for (size_t done = 0; done < count; done += kChunkWords) {
      const size_t chunk = std::min(count - done, kChunkWords);
      sampler_.StatsForWords(intended + done, chunk, stats);
      for (size_t w = 0; w < chunk; ++w) {
        WordWriteOutcome& outcome = outcomes[done + w];
        outcome.stored = intended[done + w];
        outcome.cost = stats[w].pv_sum / cells * ns_per_iteration_;
        outcome.pv_iterations = stats[w].pv_sum;
        // One uniform per erring-capable word, in word order; a corrupted
        // word falls back to the per-cell conditional sampler.
        const double word_error = 1.0 - stats[w].no_error;
        if (word_error > 0.0 && rng.UniformDouble() < word_error) {
          outcome.stored = SampleCorruptedWord(
              mlc::EncodeWord(intended[done + w], config_), stats[w].no_error,
              rng);
        }
      }
    }
  }

  double ReadCost() const override { return config_.read_latency_ns; }

 private:
  // Samples the stored word conditioned on at least one cell erring.
  uint32_t SampleCorruptedWord(const mlc::WordLevels& levels,
                               double no_error_all, Rng& rng) {
    const int cells = config_.CellsPerWord();
    mlc::WordLevels read_levels = levels;
    bool erred = false;
    double no_error_suffix = no_error_all;
    for (int c = 0; c < cells; ++c) {
      const int level = levels[static_cast<size_t>(c)];
      const double stay = 1.0 - calibration_.ErrorProbForLevel(level);
      double err_prob = 1.0 - stay;
      if (!erred) {
        const double at_least_one = 1.0 - no_error_suffix;
        err_prob = at_least_one > 0.0 ? err_prob / at_least_one : 1.0;
        if (stay > 0.0) no_error_suffix /= stay;
      }
      if (rng.UniformDouble() < err_prob) {
        read_levels[static_cast<size_t>(c)] =
            static_cast<uint8_t>(SampleWrongLevel(level, rng));
        erred = true;
      }
    }
    if (!erred) {
      // Numerical corner: force an error on a random cell.
      const int c = static_cast<int>(rng.UniformInt(cells));
      read_levels[static_cast<size_t>(c)] = static_cast<uint8_t>(
          SampleWrongLevel(levels[static_cast<size_t>(c)], rng));
    }
    return mlc::DecodeWord(read_levels, config_);
  }

  // Samples a read level != written, from the calibrated transitions.
  int SampleWrongLevel(int written, Rng& rng) {
    for (int attempt = 0; attempt < 64; ++attempt) {
      const int read = calibration_.SampleReadLevel(written, rng);
      if (read != written) return read;
    }
    // Error mass is overwhelmingly on adjacent levels; drift is upward.
    return written + 1 < config_.levels ? written + 1 : written - 1;
  }

  const mlc::CellCalibration& calibration_;
  mlc::MlcConfig config_;
  mlc::BatchErrorSampler sampler_;
  double ns_per_iteration_;
};

class PcmBackend final : public MemoryBackend {
 public:
  /// A null `device` is "mlc-pcm"; a device makes this "mlc-pcm-banked".
  PcmBackend(const BackendContext& context,
             std::unique_ptr<mem::MemorySystem> device)
      : device_(std::move(device)),
        mlc_(context.mlc),
        mode_(context.mode),
        calibration_(context.calibration
                         ? context.calibration
                         : std::make_shared<mlc::CalibrationCache>(
                               context.mlc.WithT(context.mlc.precise_t_width),
                               context.calibration_trials,
                               context.calibration_seed)) {
    APPROXMEM_CHECK_OK(mlc_.WithT(mlc_.precise_t_width).Validate());
  }

  std::string_view name() const override {
    return device_ ? kBankedPcmBackendName : kPcmBackendName;
  }
  std::string_view cost_unit() const override { return "ns"; }

  Status Validate(const AllocSpec& spec) const override {
    if (spec.domain == AllocSpec::Domain::kPrecise) return Status::Ok();
    return mlc_.WithT(spec.knob).Validate();
  }

  StatusOr<WriteModel*> ModelFor(const AllocSpec& spec) override {
    if (spec.domain == AllocSpec::Domain::kPrecise) return nullptr;
    const Status status = mlc_.WithT(spec.knob).Validate();
    if (!status.ok()) return status;
    return ApproxModelForT(spec.knob);
  }

  /// Identity stores at the Table 1 write latency (1 us), spending the
  /// precise T's calibrated avg #P in every cell. Calibrates the precise T
  /// on first use.
  PreciseCosts precise_costs() override {
    if (!precise_costs_) {
      precise_costs_ = PreciseCosts{
          mlc_.precise_write_latency_ns,
          calibration_->ForT(mlc_.precise_t_width).AvgPv() *
              mlc_.CellsPerWord(),
          mlc_.read_latency_ns};
    }
    return *precise_costs_;
  }

  double ModelWordErrorRate(const AllocSpec& spec) override {
    if (spec.domain == AllocSpec::Domain::kPrecise) return 0.0;
    return calibration_->ForT(spec.knob).WordErrorRate(mlc_.CellsPerWord());
  }

  double WriteCostRatio(double knob) override {
    return calibration_->PvRatio(knob);
  }

  /// The paper's sweet spot for approx-refine (Figure 9).
  double default_approx_knob() const override { return 0.055; }
  /// Tightening T to the precise half-width makes approximate writes as
  /// safe (and as slow) as precise ones — the ladder's floor.
  double min_knob() const override { return mlc_.precise_t_width; }
  double precise_knob() const override { return mlc_.precise_t_width; }

  mem::MemorySystem* cost_system() override { return device_.get(); }

 private:
  WriteModel* ApproxModelForT(double t) {
    for (auto& [existing_t, model] : approx_models_) {
      if (existing_t == t) return model.get();
    }
    const mlc::CellCalibration& calib = calibration_->ForT(t);
    const double precise_pv =
        calibration_->ForT(mlc_.precise_t_width).AvgPv();
    const double ns_per_iteration =
        mlc_.precise_write_latency_ns / precise_pv;
    std::unique_ptr<WriteModel> model;
    if (mode_ == SimulationMode::kExact) {
      model = std::make_unique<ExactPcmWriteModel>(mlc_.WithT(t),
                                                   ns_per_iteration);
    } else {
      model = std::make_unique<FastPcmWriteModel>(calib, ns_per_iteration);
    }
    approx_models_.emplace_back(t, std::move(model));
    return approx_models_.back().second.get();
  }

  std::unique_ptr<mem::MemorySystem> device_;
  mlc::MlcConfig mlc_;
  SimulationMode mode_;
  std::shared_ptr<mlc::CalibrationCache> calibration_;
  std::optional<PreciseCosts> precise_costs_;
  std::vector<std::pair<double, std::unique_ptr<WriteModel>>> approx_models_;
};

}  // namespace

namespace internal {

std::unique_ptr<MemoryBackend> MakePcmBackend(const BackendContext& context) {
  return std::make_unique<PcmBackend>(context, nullptr);
}

std::unique_ptr<MemoryBackend> MakeBankedPcmBackend(
    const BackendContext& context) {
  return std::make_unique<PcmBackend>(
      context, std::make_unique<mem::MemorySystem>(
                   mem::MemorySystem::PaperDefault()));
}

}  // namespace internal
}  // namespace approxmem::approx
