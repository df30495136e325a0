#include "mlc/calibration.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <string_view>
#include <utility>

#include "common/check.h"
#include "common/hash.h"
#include "common/thread_pool.h"
#include "mlc/cell.h"
#include "mlc/word_codec.h"

namespace approxmem::mlc {
namespace {

// Trials per calibration shard. The shard layout depends only on the trial
// count (never on the thread count), so merged counts — and therefore every
// derived statistic — are bit-identical for any schedule.
constexpr uint64_t kShardTrials = 4096;

}  // namespace

CellCalibration CellCalibration::Run(const MlcConfig& config,
                                     uint64_t trials_per_level, Rng& rng) {
  return Run(config, trials_per_level, rng.Next64(), /*pool=*/nullptr);
}

CellCalibration CellCalibration::Run(const MlcConfig& config,
                                     uint64_t trials_per_level, uint64_t seed,
                                     ThreadPool* pool) {
  APPROXMEM_CHECK_OK(config.Validate());
  APPROXMEM_CHECK(trials_per_level > 0);

  const int levels = config.levels;
  CellCalibration calib;
  calib.config_ = config;
  calib.trials_per_level_ = trials_per_level;
  calib.avg_pv_per_level_.assign(static_cast<size_t>(levels), 0.0);
  calib.error_prob_per_level_.assign(static_cast<size_t>(levels), 0.0);
  calib.read_level_cdf_.assign(static_cast<size_t>(levels * levels), 0.0);
  calib.pv_cdf_.assign(static_cast<size_t>(levels * kMaxPvBucket), 0.0);

  // Fixed work decomposition: each (level, shard) slice owns a substream
  // split off in a fixed order, independent of how shards are scheduled.
  struct Shard {
    int level = 0;
    uint64_t trials = 0;
    Rng rng{0};
    uint64_t pv_total = 0;
    std::vector<uint64_t> transition;  // Indexed by read level.
    std::vector<uint64_t> pv_counts;   // Indexed by #P bucket.
  };
  const uint64_t shards_per_level =
      (trials_per_level + kShardTrials - 1) / kShardTrials;
  std::vector<Shard> shards;
  shards.reserve(static_cast<size_t>(levels) * shards_per_level);
  Rng root(seed);
  for (int level = 0; level < levels; ++level) {
    Rng level_stream = root.Split();
    for (uint64_t s = 0; s < shards_per_level; ++s) {
      Shard shard;
      shard.level = level;
      shard.trials =
          std::min<uint64_t>(kShardTrials, trials_per_level - s * kShardTrials);
      shard.rng = level_stream.Split();
      shards.push_back(std::move(shard));
    }
  }

  auto run_shard = [&config, levels](Shard& shard) {
    shard.transition.assign(static_cast<size_t>(levels), 0);
    shard.pv_counts.assign(static_cast<size_t>(kMaxPvBucket), 0);
    for (uint64_t trial = 0; trial < shard.trials; ++trial) {
      const CellWriteResult w = WriteCell(shard.level, config, shard.rng);
      const int read = ReadCell(w.analog, config, shard.rng);
      shard.pv_total += w.iterations;
      ++shard.transition[static_cast<size_t>(read)];
      const int bucket = std::min<int>(static_cast<int>(w.iterations),
                                       kMaxPvBucket) -
                         1;
      ++shard.pv_counts[static_cast<size_t>(std::max(bucket, 0))];
    }
  };
  if (pool != nullptr) {
    pool->ParallelFor(0, shards.size(),
                      [&](size_t i) { run_shard(shards[i]); });
  } else {
    for (Shard& shard : shards) run_shard(shard);
  }

  // Merge shard counts. Integer sums are order-independent, so the merge is
  // deterministic regardless of shard completion order.
  std::vector<uint64_t> transition(static_cast<size_t>(levels * levels), 0);
  std::vector<uint64_t> pv_counts(static_cast<size_t>(levels * kMaxPvBucket),
                                  0);
  std::vector<uint64_t> pv_totals(static_cast<size_t>(levels), 0);
  for (const Shard& shard : shards) {
    pv_totals[static_cast<size_t>(shard.level)] += shard.pv_total;
    for (int read = 0; read < levels; ++read) {
      transition[static_cast<size_t>(shard.level * levels + read)] +=
          shard.transition[static_cast<size_t>(read)];
    }
    for (int b = 0; b < kMaxPvBucket; ++b) {
      pv_counts[static_cast<size_t>(shard.level * kMaxPvBucket + b)] +=
          shard.pv_counts[static_cast<size_t>(b)];
    }
  }

  for (int written = 0; written < levels; ++written) {
    calib.avg_pv_per_level_[static_cast<size_t>(written)] =
        static_cast<double>(pv_totals[static_cast<size_t>(written)]) /
        static_cast<double>(trials_per_level);

    // Cumulative distributions for fast sampling.
    double cum = 0.0;
    for (int read = 0; read < levels; ++read) {
      cum += static_cast<double>(
                 transition[static_cast<size_t>(written * levels + read)]) /
             static_cast<double>(trials_per_level);
      calib.read_level_cdf_[static_cast<size_t>(written * levels + read)] =
          cum;
    }
    // Force the last entry to exactly 1 so sampling never falls off the end.
    calib.read_level_cdf_[static_cast<size_t>(written * levels + levels - 1)] =
        1.0;

    cum = 0.0;
    for (int b = 0; b < kMaxPvBucket; ++b) {
      cum += static_cast<double>(
                 pv_counts[static_cast<size_t>(written * kMaxPvBucket + b)]) /
             static_cast<double>(trials_per_level);
      calib.pv_cdf_[static_cast<size_t>(written * kMaxPvBucket + b)] = cum;
    }
    calib.pv_cdf_[static_cast<size_t>(written * kMaxPvBucket + kMaxPvBucket -
                                      1)] = 1.0;

    const double stay =
        static_cast<double>(
            transition[static_cast<size_t>(written * levels + written)]) /
        static_cast<double>(trials_per_level);
    calib.error_prob_per_level_[static_cast<size_t>(written)] = 1.0 - stay;
  }

  double pv_sum = 0.0;
  double err_sum = 0.0;
  for (int l = 0; l < levels; ++l) {
    pv_sum += calib.avg_pv_per_level_[static_cast<size_t>(l)];
    err_sum += calib.error_prob_per_level_[static_cast<size_t>(l)];
  }
  calib.avg_pv_ = pv_sum / levels;
  calib.cell_error_rate_ = err_sum / levels;
  return calib;
}

double CellCalibration::AvgPvForLevel(int level) const {
  APPROXMEM_CHECK(level >= 0 && level < config_.levels);
  return avg_pv_per_level_[static_cast<size_t>(level)];
}

double CellCalibration::ErrorProbForLevel(int level) const {
  APPROXMEM_CHECK(level >= 0 && level < config_.levels);
  return error_prob_per_level_[static_cast<size_t>(level)];
}

double CellCalibration::WordErrorRate(int cells) const {
  // Cells are independent and random-level, so the no-error probabilities
  // multiply.
  return 1.0 - std::pow(1.0 - cell_error_rate_, cells);
}

int CellCalibration::SampleReadLevel(int level, Rng& rng) const {
  const double u = rng.UniformDouble();
  const int levels = config_.levels;
  const double* row = &read_level_cdf_[static_cast<size_t>(level * levels)];
  for (int read = 0; read < levels - 1; ++read) {
    if (u < row[read]) return read;
  }
  return levels - 1;
}

uint32_t CellCalibration::SamplePvIterations(int level, Rng& rng) const {
  const double u = rng.UniformDouble();
  const double* row = &pv_cdf_[static_cast<size_t>(level * kMaxPvBucket)];
  for (int b = 0; b < kMaxPvBucket - 1; ++b) {
    if (u < row[b]) return static_cast<uint32_t>(b + 1);
  }
  return kMaxPvBucket;
}

void CellCalibration::Serialize(std::FILE* out) const {
  std::fprintf(out, "calibration v1\n");
  std::fprintf(out, "%d %.17g %.17g %.17g %.17g %.17g %u %llu\n",
               config_.levels, config_.beta, config_.t_width,
               config_.drift_mu_per_decade, config_.drift_sigma_per_decade,
               config_.elapsed_seconds, config_.max_pv_iterations,
               static_cast<unsigned long long>(trials_per_level_));
  std::fprintf(out, "%.17g %.17g\n", avg_pv_, cell_error_rate_);
  auto write_vector = [out](const std::vector<double>& values) {
    std::fprintf(out, "%zu", values.size());
    for (const double v : values) std::fprintf(out, " %.17g", v);
    std::fprintf(out, "\n");
  };
  write_vector(avg_pv_per_level_);
  write_vector(error_prob_per_level_);
  write_vector(read_level_cdf_);
  write_vector(pv_cdf_);
}

StatusOr<CellCalibration> CellCalibration::Deserialize(std::FILE* in) {
  char header[32] = {};
  if (std::fscanf(in, "%31[^\n]\n", header) != 1 ||
      std::string_view(header) != "calibration v1") {
    return Status::InvalidArgument("bad calibration header");
  }
  CellCalibration calib;
  unsigned long long trials = 0;
  if (std::fscanf(in, "%d %lg %lg %lg %lg %lg %u %llu\n",
                  &calib.config_.levels, &calib.config_.beta,
                  &calib.config_.t_width, &calib.config_.drift_mu_per_decade,
                  &calib.config_.drift_sigma_per_decade,
                  &calib.config_.elapsed_seconds,
                  &calib.config_.max_pv_iterations, &trials) != 8) {
    return Status::InvalidArgument("bad calibration config line");
  }
  calib.trials_per_level_ = trials;
  if (std::fscanf(in, "%lg %lg\n", &calib.avg_pv_,
                  &calib.cell_error_rate_) != 2) {
    return Status::InvalidArgument("bad calibration summary line");
  }
  auto read_vector = [in](std::vector<double>* values) {
    size_t count = 0;
    if (std::fscanf(in, "%zu", &count) != 1 || count > (1u << 24)) {
      return false;
    }
    values->resize(count);
    for (double& v : *values) {
      if (std::fscanf(in, "%lg", &v) != 1) return false;
    }
    return true;
  };
  if (!read_vector(&calib.avg_pv_per_level_) ||
      !read_vector(&calib.error_prob_per_level_) ||
      !read_vector(&calib.read_level_cdf_) ||
      !read_vector(&calib.pv_cdf_)) {
    return Status::InvalidArgument("bad calibration vectors");
  }
  const Status valid = calib.config_.Validate();
  if (!valid.ok()) return valid;
  const size_t levels = static_cast<size_t>(calib.config_.levels);
  if (calib.avg_pv_per_level_.size() != levels ||
      calib.error_prob_per_level_.size() != levels ||
      calib.read_level_cdf_.size() != levels * levels ||
      calib.pv_cdf_.size() != levels * kMaxPvBucket) {
    return Status::InvalidArgument("calibration vector sizes inconsistent");
  }
  // Eat the trailing newline so the next record starts clean.
  std::fscanf(in, "\n");
  return calib;
}

BatchErrorSampler::BatchErrorSampler(const CellCalibration& calibration)
    : config_(calibration.config()) {
  const int levels = config_.levels;
  stay_prob_.resize(static_cast<size_t>(levels));
  avg_pv_.resize(static_cast<size_t>(levels));
  for (int l = 0; l < levels; ++l) {
    stay_prob_[static_cast<size_t>(l)] =
        1.0 - calibration.ErrorProbForLevel(l);
    avg_pv_[static_cast<size_t>(l)] = calibration.AvgPvForLevel(l);
  }
  fast_layout_ = config_.BitsPerCell() == 2 && config_.CellsPerWord() == 16;
  if (fast_layout_) {
    pv_byte_.resize(256);
    stay_byte_.resize(256);
    for (int b = 0; b < 256; ++b) {
      // Accumulate the byte's four 2-bit levels in cell order (MSB-first),
      // matching the order StatsFor folds bytes in, so the full-word sums
      // and products are evaluated left to right over all 16 cells.
      double pv = 0.0;
      double stay = 1.0;
      for (int c = 0; c < 4; ++c) {
        const size_t level = static_cast<size_t>((b >> (6 - 2 * c)) & 0x3);
        pv += avg_pv_[level];
        stay *= stay_prob_[level];
      }
      pv_byte_[static_cast<size_t>(b)] = pv;
      stay_byte_[static_cast<size_t>(b)] = stay;
    }
  }
}

BatchErrorSampler::WordStats BatchErrorSampler::StatsFor(
    uint32_t word) const {
  WordStats stats;
  StatsForWords(&word, 1, &stats);
  return stats;
}

void BatchErrorSampler::StatsForWords(const uint32_t* words, size_t count,
                                      WordStats* out) const {
  if (fast_layout_) {
    for (size_t w = 0; w < count; ++w) {
      const uint32_t word = words[w];
      const size_t b0 = (word >> 24) & 0xffu;
      const size_t b1 = (word >> 16) & 0xffu;
      const size_t b2 = (word >> 8) & 0xffu;
      const size_t b3 = word & 0xffu;
      out[w].pv_sum = ((pv_byte_[b0] + pv_byte_[b1]) + pv_byte_[b2]) +
                      pv_byte_[b3];
      out[w].no_error = ((stay_byte_[b0] * stay_byte_[b1]) * stay_byte_[b2]) *
                        stay_byte_[b3];
    }
    return;
  }
  const int cells = config_.CellsPerWord();
  constexpr size_t kChunkWords = 32;
  uint8_t levels[kChunkWords * static_cast<size_t>(kMaxCellsPerWord)];
  for (size_t done = 0; done < count; done += kChunkWords) {
    const size_t chunk = std::min(count - done, kChunkWords);
    EncodeWords(words + done, chunk, config_, levels);
    for (size_t w = 0; w < chunk; ++w) {
      const uint8_t* cell_levels = levels + w * static_cast<size_t>(cells);
      double pv = 0.0;
      double stay = 1.0;
      for (int c = 0; c < cells; ++c) {
        const size_t level = cell_levels[c];
        pv += avg_pv_[level];
        stay *= stay_prob_[level];
      }
      out[done + w].pv_sum = pv;
      out[done + w].no_error = stay;
    }
  }
}

size_t BatchErrorSampler::FirstCorrupted(const double* word_error,
                                         size_t count, Rng& rng) {
  for (size_t w = 0; w < count; ++w) {
    if (word_error[w] > 0.0 && rng.UniformDouble() < word_error[w]) return w;
  }
  return count;
}

CalibrationCache::CalibrationCache(MlcConfig base_config,
                                   uint64_t trials_per_level, uint64_t seed,
                                   ThreadPool* pool)
    : base_config_(base_config),
      trials_per_level_(trials_per_level),
      seed_(seed),
      pool_(pool) {}

uint64_t CalibrationCache::SeedForT(double t) const {
  // Key each entry's substream by (cache seed, T bit pattern) so cached
  // values are independent of request order and of the requesting thread.
  uint64_t bits = 0;
  static_assert(sizeof(bits) == sizeof(t));
  std::memcpy(&bits, &t, sizeof(bits));
  return Mix64(seed_ ^ (bits + kSplitMix64Gamma));
}

const CellCalibration& CalibrationCache::ForT(double t) {
  Entry* entry = nullptr;
  {
    std::lock_guard<std::mutex> lock(mu_);
    std::unique_ptr<Entry>& slot = cache_[t];
    if (slot == nullptr) slot = std::make_unique<Entry>();
    entry = slot.get();
  }
  // Calibrate outside the map lock: distinct Ts proceed concurrently, a
  // second request for the same T blocks here until the first finishes.
  std::lock_guard<std::mutex> lock(entry->mu);
  if (entry->calibration == nullptr) {
    entry->calibration = std::make_unique<CellCalibration>(CellCalibration::Run(
        base_config_.WithT(t), trials_per_level_, SeedForT(t), pool_));
  }
  return *entry->calibration;
}

double CalibrationCache::PvRatio(double t) {
  const double precise = ForT(base_config_.precise_t_width).AvgPv();
  return ForT(t).AvgPv() / precise;
}

bool CalibrationCache::SaveToFile(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::lock_guard<std::mutex> lock(mu_);
  size_t ready = 0;
  for (const auto& [t, entry] : cache_) {
    std::lock_guard<std::mutex> entry_lock(entry->mu);
    if (entry->calibration != nullptr) ++ready;
  }
  std::fprintf(f, "approxmem-calibrations v1 %zu\n", ready);
  for (const auto& [t, entry] : cache_) {
    std::lock_guard<std::mutex> entry_lock(entry->mu);
    if (entry->calibration != nullptr) entry->calibration->Serialize(f);
  }
  const bool ok = std::ferror(f) == 0;
  std::fclose(f);
  return ok;
}

StatusOr<size_t> CalibrationCache::LoadFromFile(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "r");
  if (f == nullptr) {
    return Status::InvalidArgument("cannot open calibration file: " + path);
  }
  size_t count = 0;
  if (std::fscanf(f, "approxmem-calibrations v1 %zu\n", &count) != 1) {
    std::fclose(f);
    return Status::InvalidArgument("bad calibration file header");
  }
  size_t loaded = 0;
  for (size_t i = 0; i < count; ++i) {
    StatusOr<CellCalibration> calib = CellCalibration::Deserialize(f);
    if (!calib.ok()) {
      std::fclose(f);
      return calib.status();
    }
    // Only adopt entries whose model parameters match this cache's base
    // configuration (T varies per entry by design).
    const MlcConfig& config = calib->config();
    const MlcConfig& base = base_config_;
    const bool compatible =
        config.levels == base.levels && config.beta == base.beta &&
        config.drift_mu_per_decade == base.drift_mu_per_decade &&
        config.drift_sigma_per_decade == base.drift_sigma_per_decade &&
        config.elapsed_seconds == base.elapsed_seconds;
    if (compatible) {
      std::lock_guard<std::mutex> lock(mu_);
      std::unique_ptr<Entry>& slot = cache_[config.t_width];
      if (slot == nullptr) {
        slot = std::make_unique<Entry>();
        slot->calibration = std::make_unique<CellCalibration>(
            std::move(calib.value()));
        ++loaded;
      }
    }
  }
  std::fclose(f);
  return loaded;
}

}  // namespace approxmem::mlc
