// Shared pieces of the repository benchmark (see README.md in this
// directory): configuration, the per-run result every workload fills, the
// digest used for deterministic fingerprints, and sample statistics.
//
// Two kinds of number are kept apart throughout. Host numbers are what the
// simulator costs the person running it (steady_clock). Simulated numbers
// are what the modelled memory would do; they are pure functions of the
// seed and enter the fingerprint, host numbers never do.
#ifndef PERFBENCH_PERFBENCH_H_
#define PERFBENCH_PERFBENCH_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "approx/memory_stats.h"
#include "service/service_trace.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

struct Config {
  std::string workload;
  uint64_t seed = 1;
  /// Host seconds the timed phase runs for (at least one full pass).
  double seconds = 10.0;
  /// Traced run: per-layer metrics instead of end-to-end ones.
  bool trace = false;
  /// Concurrency of every pool the benchmark creates (sort stripes,
  /// calibration, I/O, service shards).
  int threads = 2;
  /// Self-check scale: every workload shrunk to well under a second.
  bool tiny = false;
  /// Run setup once and the first pass only; report the fingerprint.
  bool fingerprint_only = false;
};

/// SplitMix64 finalizer of (seed, index): derives every per-job seed.
uint64_t Mix(uint64_t seed, uint64_t index);

/// FNV-1a 64 over everything simulated a workload produces.
class Digest {
 public:
  void Add(const void* data, size_t bytes);
  void AddU64(uint64_t value) { Add(&value, sizeof(value)); }
  void AddDouble(double value) { Add(&value, sizeof(value)); }
  void AddWords(const std::vector<uint32_t>& words) {
    AddU64(words.size());
    Add(words.data(), words.size() * sizeof(uint32_t));
  }
  void AddStats(const approxmem::approx::MemoryStats& stats);
  uint64_t value() const { return state_; }

 private:
  uint64_t state_ = 0xcbf29ce484222325ULL;
};

/// Linear-interpolated quantile of `values` (q in [0, 1]); 0 when empty.
double Quantile(std::vector<double> values, double q);
inline double Median(const std::vector<double>& values) {
  return Quantile(values, 0.5);
}
inline double Mean(const std::vector<double>& values) {
  double sum = 0.0;
  for (const double value : values) sum += value;
  return values.empty() ? 0.0 : sum / static_cast<double>(values.size());
}

/// The highest percentile that has at least ten samples beyond it; with
/// fewer than twenty samples (where that would fall below the median), the
/// maximum (percentile 100).
struct Tail {
  double value = 0.0;
  double percentile = 100.0;
  size_t samples = 0;
};
Tail TailOf(const std::vector<double>& values);

/// Everything one run measures. Workloads fill it; bench_main turns it into
/// the result line.
struct Result {
  // ---- Host time. A round is the unit the timed phase repeats: one
  // radix job or one service trace.
  std::vector<double> setup_s;
  /// Host ms of every run of job j of the pass, by j.
  std::vector<std::vector<double>> job_ms;
  std::vector<double> round_s;
  std::vector<double> round_keys;
  std::vector<double> round_jobs;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  // ---- Simulated, from the first pass only (deterministic in the seed).
  double approx_write_cost = 0.0;
  double baseline_write_cost = 0.0;
  /// Overrides approx/baseline when the workload mixes cost units.
  double write_cost_ratio = -1.0;
  double sim_time_s = 0.0;
  std::vector<double> vlatency_us;
  /// Approx-refine side ledger summed over the first pass.
  approxmem::approx::MemoryStats approx_stats;
  /// Precise-baseline word reads and writes (for host ns per access).
  uint64_t baseline_accesses = 0;
  Digest fingerprint;
  // ---- Traced run.
  std::map<std::string, double> layers;
  // ---- Provenance and diagnostics.
  std::map<std::string, std::string> params;
  std::vector<std::string> errors;

  void Fail(const std::string& what) {
    ++failed;
    if (errors.size() < 20) errors.push_back(what);
  }
  void AddJob(size_t j, double ms) {
    if (job_ms.size() <= j) job_ms.resize(j + 1);
    job_ms[j].push_back(ms);
  }
  /// Records one verified round: its host seconds and what it completed.
  void AddRound(double seconds, uint64_t keys, uint64_t jobs) {
    round_s.push_back(seconds);
    round_keys.push_back(static_cast<double>(keys));
    round_jobs.push_back(static_cast<double>(jobs));
  }
  double WriteCostRatio() const {
    if (write_cost_ratio >= 0.0) return write_cost_ratio;
    return baseline_write_cost > 0.0 ? approx_write_cost / baseline_write_cost
                                     : 0.0;
  }
};

/// One benchmark workload: a fixed list of rounds. Setup may be called
/// several times (each call rebuilds everything it made, so set-up time is
/// measured repeatedly); the first pass runs every round once and records
/// the simulated results, later rounds must reproduce them.
class Workload {
 public:
  virtual ~Workload() = default;
  /// Workload parameters for provenance.
  virtual std::map<std::string, std::string> Params() const = 0;
  /// Builds pools, calibrations, engines or services, and inputs.
  virtual void Setup() = 0;
  virtual size_t Rounds() const = 0;
  /// Runs round `r`. With `first` it records the simulated results and
  /// per-round digests; otherwise it checks the digests it produced.
  virtual void RunRound(size_t r, bool first, Result* result) = 0;
  /// Traced pass: the same jobs timed layer by layer. Fills
  /// result->layers and checks the traced execution against the first
  /// pass byte for byte.
  virtual void TracePass(Result* result) = 0;
  /// Per-knob calibration times measured by the last Setup.
  const std::vector<double>& calibrate_s() const { return calibrate_s_; }
  double engine_init_s() const { return engine_init_s_; }

 protected:
  std::vector<double> calibrate_s_;
  double engine_init_s_ = 0.0;
};

std::unique_ptr<Workload> MakeWorkload(const Config& config);

/// The workload's characteristic sort size, at which the layer probes run.
size_t ProbeSortN(const Config& config);

/// Fills every per-layer metric the workload's traced pass did not set, by
/// timing calls into each module's public functions at `sort_n` and the
/// mlc-pcm knob every workload runs at (layers.cc).
void RunLayerProbes(const Config& config, size_t sort_n, Result* result);

/// Shape of the serve_mixed trace.
struct ServeShape {
  size_t bursts = 24;
  size_t max_burst_jobs = 16;
  size_t max_n = 16384;
  double extsort_fraction = 0.1;
};
ServeShape ServeShapeFor(const Config& config);

/// serve_mixed's k-th trace: the job mix (tenants, algorithms, key kinds,
/// sizes, classes) is fixed by `shape`; config.seed and k draw every job's
/// keys.
approxmem::service::RequestTrace ServeTrace(const Config& config,
                                            const ServeShape& shape, size_t k);

/// Traced reference runs for layers a workload does not exercise itself:
/// one lsd3 approx-refine job at `n`, a small external sort and a small
/// serve_mixed. Each runs set-up, a first pass and a traced pass, and
/// merges its per-layer metrics and failures into `result`.
void TraceReferenceRefine(const Config& config, size_t n, Result* result);
void TraceReferenceExtsort(const Config& config, Result* result);
void TraceReferenceService(const Config& config, Result* result);

}  // namespace perfbench

#endif  // PERFBENCH_PERFBENCH_H_
