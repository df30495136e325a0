// Monte-Carlo calibration of the cell model.
//
// The exact simulation path draws O(#P) normal samples per cell write, which
// is faithful but slow for 16M-element sorts. Calibration runs the exact
// model once per (config, T) and summarizes it as:
//   * avg #P per written level (write latency),
//   * the distribution of the digital level read back per written level
//     (error injection),
// which the fast path then samples with one uniform draw per cell (and, in
// the common all-correct case, one draw per word). Tests verify the fast
// path is statistically indistinguishable from the exact path.
//
// Calibration is embarrassingly parallel: trials are split into fixed-size
// shards, each drawing from its own Rng::Split()-derived substream keyed by
// (level, shard index), so the merged result is bit-identical for every
// thread count — including fully serial execution.
#ifndef APPROXMEM_MLC_CALIBRATION_H_
#define APPROXMEM_MLC_CALIBRATION_H_

#include <cstdint>
#include <cstdio>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/random.h"
#include "common/status.h"
#include "mlc/mlc_config.h"

namespace approxmem {
class ThreadPool;
}  // namespace approxmem

namespace approxmem::mlc {

/// Summary of the exact cell model at one configuration.
class CellCalibration {
 public:
  /// Runs `trials_per_level` exact write+read simulations per level,
  /// seeding the shard substreams from one draw of `rng` (serial
  /// convenience API; equivalent to the seed overload below).
  static CellCalibration Run(const MlcConfig& config,
                             uint64_t trials_per_level, Rng& rng);

  /// Deterministic, optionally parallel calibration. Shards run on `pool`
  /// when given (nullptr = serial); the result depends only on (config,
  /// trials_per_level, seed), never on the thread count or schedule.
  static CellCalibration Run(const MlcConfig& config,
                             uint64_t trials_per_level, uint64_t seed,
                             ThreadPool* pool = nullptr);

  const MlcConfig& config() const { return config_; }
  uint64_t trials_per_level() const { return trials_per_level_; }

  /// Average number of P&V iterations for writes of `level`.
  double AvgPvForLevel(int level) const;

  /// Average #P over uniformly random target levels (paper Fig. 2(a)).
  double AvgPv() const { return avg_pv_; }

  /// Probability that a write of `level` reads back as a different level.
  double ErrorProbForLevel(int level) const;

  /// Error probability of a cell written with a uniformly random level
  /// (paper Fig. 2(b), "2-bit" curve).
  double CellErrorRate() const { return cell_error_rate_; }

  /// Probability that at least one of `cells` independent random-level cells
  /// reads back wrong (paper Fig. 2(b), "32-bit" curve for cells = 16).
  double WordErrorRate(int cells) const;

  /// Samples the level read back after writing `level` (fast path).
  int SampleReadLevel(int level, Rng& rng) const;

  /// Samples a #P count for a write of `level` from the empirical
  /// distribution (fast path latency jitter; the mean matches AvgPvForLevel).
  uint32_t SamplePvIterations(int level, Rng& rng) const;

  /// Serializes the calibration as one text record to `out`.
  void Serialize(std::FILE* out) const;

  /// Parses one record written by Serialize. Returns InvalidArgument on
  /// malformed input.
  static StatusOr<CellCalibration> Deserialize(std::FILE* in);

 private:
  MlcConfig config_;
  uint64_t trials_per_level_ = 0;
  double avg_pv_ = 0.0;
  double cell_error_rate_ = 0.0;
  std::vector<double> avg_pv_per_level_;
  std::vector<double> error_prob_per_level_;
  // Row-major [written][read] cumulative distribution for fast sampling.
  std::vector<double> read_level_cdf_;
  // Per-level empirical #P distribution: cdf over iteration counts 1..kMaxPv.
  static constexpr int kMaxPvBucket = 64;
  std::vector<double> pv_cdf_;
};

/// Batched fast-path word statistics derived from one CellCalibration: the
/// per-word expected #P sum and no-error probability that the fast PCM
/// write model needs for every written word, plus a scan for the first
/// erring word of a batch.
///
/// For the paper's 16x2-bit layout the per-cell tables are folded into
/// 256-entry per-byte partials (4 table lookups per word instead of 16 cell
/// loops); other layouts fall back to the batched codec plus a per-cell
/// loop. Both paths accumulate in a fixed order, so batch results are
/// bit-identical to calling StatsFor word by word.
class BatchErrorSampler {
 public:
  explicit BatchErrorSampler(const CellCalibration& calibration);

  struct WordStats {
    double pv_sum = 0.0;    // Expected #P summed over the word's cells.
    double no_error = 1.0;  // Probability every cell reads back correct.
  };

  /// Stats for one word.
  WordStats StatsFor(uint32_t word) const;

  /// Stats for `count` words at once (vectorizable table-lookup kernel on
  /// the 16x2-bit fast layout).
  void StatsForWords(const uint32_t* words, size_t count,
                     WordStats* out) const;

  bool fast_layout() const { return fast_layout_; }

  /// Scans `word_error[0, count)` for the first word whose uniform draw
  /// lands below its error probability. Words with word_error <= 0 draw
  /// nothing; each drawing word consumes exactly one UniformDouble, in word
  /// order. Returns the erring index with the stream positioned just past
  /// that word's draw, or `count` with every drawing word's uniform
  /// consumed.
  static size_t FirstCorrupted(const double* word_error, size_t count,
                               Rng& rng);

 private:
  MlcConfig config_;
  bool fast_layout_ = false;
  // Per-level tables (any layout).
  std::vector<double> stay_prob_;
  std::vector<double> avg_pv_;
  // Per-byte partials for the 16x2-bit layout: sum of avg #P / product of
  // stay probabilities over the byte's four 2-bit levels, accumulated in
  // cell order.
  std::vector<double> pv_byte_;
  std::vector<double> stay_byte_;
};

/// Lazily calibrates and caches per-T calibrations for a fixed base config.
/// Keys are the exact T bit patterns, so sweeps over a T grid reuse entries.
///
/// Thread-safe: concurrent ForT calls may share one cache. Each T is
/// calibrated at most once (per-entry locking; the computation runs outside
/// the map lock), and every entry's substream seed is derived from
/// (cache seed, T) alone, so the cached values are independent of the order
/// in which Ts are requested and of which thread computes them.
class CalibrationCache {
 public:
  /// `trials_per_level` trades calibration accuracy for startup time.
  /// `pool`, when non-null, parallelizes each entry's Monte-Carlo shards;
  /// it must outlive the cache.
  explicit CalibrationCache(MlcConfig base_config,
                            uint64_t trials_per_level = 200000,
                            uint64_t seed = 0xca11b7a7e5eedULL,
                            ThreadPool* pool = nullptr);

  /// Sets the shard pool. Not thread-safe; call before sharing the cache.
  void set_thread_pool(ThreadPool* pool) { pool_ = pool; }

  /// Returns the calibration for the base config with t_width = t.
  /// Thread-safe; the returned reference stays valid for the cache's
  /// lifetime.
  const CellCalibration& ForT(double t);

  /// p(t) of Section 2.2: avg #P at `t` divided by avg #P at the precise T.
  double PvRatio(double t);

  /// Persists every cached calibration to `path` (overwrites). Returns
  /// false on I/O failure. Loading on a later run skips recalibration for
  /// matching configurations — useful for --full-scale bench runs.
  bool SaveToFile(const std::string& path) const;

  /// Pre-populates the cache from a file written by SaveToFile. Entries
  /// whose configuration does not match the base config (ignoring T and
  /// trial count) are skipped. Returns the number of entries loaded.
  StatusOr<size_t> LoadFromFile(const std::string& path);

 private:
  // One cached T: per-entry lock so distinct Ts calibrate concurrently
  // while a second request for the same T blocks until it is ready.
  struct Entry {
    std::mutex mu;
    std::unique_ptr<CellCalibration> calibration;
  };

  uint64_t SeedForT(double t) const;

  MlcConfig base_config_;
  uint64_t trials_per_level_;
  uint64_t seed_;
  ThreadPool* pool_ = nullptr;
  mutable std::mutex mu_;  // Guards cache_ (the map, not the entries).
  std::map<double, std::unique_ptr<Entry>> cache_;
};

}  // namespace approxmem::mlc

#endif  // APPROXMEM_MLC_CALIBRATION_H_
