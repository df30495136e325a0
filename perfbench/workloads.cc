// The benchmark workloads and the traced reference runs. Each runs through
// the library's public entry points only: ApproxSortEngine::SortApproxRefine
// (refine_radix_1m), service::SortService (serve_mixed) and, as a traced
// reference for the extsort layer, extsort::ExternalSort. Why each workload
// exists is recorded in README.md and metrics.json.
//
// A job's host time is the library call alone. A round's host time covers
// running its jobs; the benchmark's own output checks are outside it.
#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "common/check.h"
#include "common/thread_pool.h"
#include "core/engine.h"
#include "core/workload.h"
#include "extsort/async_device.h"
#include "extsort/external_sort.h"
#include "mlc/calibration.h"
#include "perfbench.h"
#include "refine/approx_refine.h"
#include "service/service_trace.h"
#include "service/sort_service.h"
#include "sort/sort_common.h"
#include "sortedness/measures.h"

namespace perfbench {
namespace {

using approxmem::ThreadPool;
namespace approx = approxmem::approx;
namespace core = approxmem::core;
namespace extsort = approxmem::extsort;
namespace mlc = approxmem::mlc;
namespace refine = approxmem::refine;
namespace service = approxmem::service;
namespace sort = approxmem::sort;
namespace sortedness = approxmem::sortedness;

constexpr sort::AlgorithmId kLsd3{sort::SortKind::kLsdRadix, 3};
constexpr double kPcmKnob = 0.055;
// The engine derives its sort seed from its own seed with this salt
// (core/engine.cc); the traced composition must use the same stream.
constexpr uint64_t kEngineSortSalt = 0x4e414cULL;

// Calibrates `knobs` (and the precise reference p(t) divides by) on a
// fresh cache, recording each knob's CalibrationCache::ForT time.
std::shared_ptr<mlc::CalibrationCache> Calibrate(
    uint64_t trials, uint64_t seed, ThreadPool* pool,
    const std::vector<double>& knobs, std::vector<double>* calibrate_s) {
  auto cache = std::make_shared<mlc::CalibrationCache>(
      mlc::MlcConfig{}, trials, seed ^ 0xca11b7a7e5eedULL, pool);
  calibrate_s->clear();
  for (const double knob : knobs) {
    const Clock::time_point start = Clock::now();
    cache->ForT(knob);
    calibrate_s->push_back(SecondsSince(start));
    cache->PvRatio(knob);
  }
  return cache;
}

// ---------------------------------------------------------------------------
// In-memory approx-refine jobs (refine_radix_1m).

struct RefineJobSpec {
  const std::vector<uint32_t>* keys = nullptr;
  sort::AlgorithmId algorithm = kLsd3;
  double knob = kPcmKnob;
  uint64_t engine_seed = 1;
};

// What one approx-refine job produced. The output vectors are released
// once FinishRefineJob has checked them.
struct RefineJobOut {
  bool ok = false;
  std::string error;
  double host_ms = 0.0;
  std::vector<uint32_t> final_keys;
  std::vector<uint32_t> final_ids;
  refine::RefineReport report;
  refine::PreciseBaselineReport baseline;
  // Filled by FinishRefineJob.
  uint64_t digest = 0;
  double sim_us = 0.0;
  uint64_t baseline_accesses = 0;
  // Stage times, traced composition only.
  double approx_stage_s = 0.0;
  double measure_s = 0.0;
  double refine_stage_s = 0.0;
  double baseline_s = 0.0;
};

// Output digests plus the whole Eq. 2 ledger of one job.
uint64_t RefineDigest(const RefineJobOut& out) {
  const refine::RefineReport& report = out.report;
  Digest digest;
  digest.AddWords(out.final_keys);
  digest.AddWords(out.final_ids);
  digest.AddStats(report.prep_approx);
  digest.AddStats(report.prep_precise);
  digest.AddStats(report.sort_approx);
  digest.AddStats(report.sort_precise);
  digest.AddStats(report.refine_precise);
  digest.AddU64(report.rem_estimate);
  digest.AddU64(report.approx_sortedness.rem);
  digest.AddU64(report.approx_sortedness.inversions);
  digest.AddDouble(report.approx_sortedness.error_rate);
  digest.AddStats(out.baseline.keys);
  digest.AddStats(out.baseline.ids);
  digest.AddDouble(refine::WriteReduction(report, out.baseline));
  return digest.value();
}

// Verifies a finished job with VerifyRefineOutput and reduces it to what
// the benchmark reports.
void FinishRefineJob(const RefineJobSpec& spec, RefineJobOut* out) {
  if (!out->error.empty()) return;
  const refine::VerificationReport check =
      refine::VerifyRefineOutput(*spec.keys, out->final_keys, out->final_ids);
  if (!check.ok() || !out->report.verified() || !out->baseline.verified) {
    out->error = "output unverified: " + check.ToString();
    return;
  }
  out->ok = true;
  out->digest = RefineDigest(*out);
  out->sim_us =
      (out->report.TotalWriteCost() + out->report.TotalReadCost()) / 1e3;
  out->baseline_accesses =
      out->baseline.keys.word_reads + out->baseline.keys.word_writes +
      out->baseline.ids.word_reads + out->baseline.ids.word_writes;
  out->final_keys = {};
  out->final_ids = {};
}

// The timed job: one ApproxSortEngine::SortApproxRefine call on a fresh
// engine (engine construction is outside the job's time).
RefineJobOut RunRefineJob(const RefineJobSpec& spec,
                          const core::EngineOptions& options) {
  RefineJobOut out;
  core::ApproxSortEngine engine(options);
  const Clock::time_point start = Clock::now();
  auto outcome = engine.SortApproxRefine(*spec.keys, spec.algorithm,
                                         spec.knob, &out.final_keys,
                                         &out.final_ids);
  out.host_ms = SecondsSince(start) * 1e3;
  if (!outcome.ok()) {
    out.error = outcome.status().ToString();
    return out;
  }
  out.report = std::move(outcome->refine);
  out.baseline = std::move(outcome->baseline);
  return out;
}

// The traced stand-in for SortApproxRefine: the same engine state driven
// stage by stage (RunApproxStage with the sortedness measurement off,
// sortedness::Measure, RunRefineStage, PreciseSortBaseline), so each stage
// is timed from outside the library. Its digest must equal the untraced
// job's.
RefineJobOut ComposeRefineJob(const RefineJobSpec& spec,
                              const core::EngineOptions& options) {
  RefineJobOut out;
  core::ApproxSortEngine engine(options);
  approx::ApproxMemory& memory = engine.memory();
  const Clock::time_point start = Clock::now();
  const approxmem::Status valid = memory.backend().Validate(
      approx::AllocSpec::Approx(spec.knob, spec.keys->size()));
  if (!valid.ok()) {
    out.error = valid.ToString();
    return out;
  }
  refine::RefineOptions refine_options;
  refine_options.algorithm = spec.algorithm;
  const double knob = spec.knob;
  refine_options.approx_alloc = [&memory, knob](size_t n) {
    return memory.NewApproxArray(n, knob);
  };
  refine_options.precise_alloc = [&memory](size_t n) {
    return memory.NewPreciseArray(n);
  };
  refine_options.sort_seed = options.seed ^ kEngineSortSalt;
  refine_options.tuning = engine.SortTuningForRuns();
  refine_options.measure_approx_sortedness = false;

  refine::ApproxStageState state;
  Clock::time_point stage = Clock::now();
  approxmem::Status status =
      refine::RunApproxStage(*spec.keys, refine_options, &state);
  out.approx_stage_s = SecondsSince(stage);
  if (!status.ok()) {
    out.error = status.ToString();
    return out;
  }
  stage = Clock::now();
  if (state.key_approx.has_value()) {
    state.report.approx_sortedness = sortedness::Measure(*state.key_approx);
  }
  out.measure_s = SecondsSince(stage);

  stage = Clock::now();
  status = refine::RunRefineStage(state, refine_options, &out.report,
                                  &out.final_keys, &out.final_ids);
  out.refine_stage_s = SecondsSince(stage);
  if (!status.ok()) {
    out.error = status.ToString();
    return out;
  }
  stage = Clock::now();
  auto baseline = refine::PreciseSortBaseline(
      *spec.keys, spec.algorithm, refine_options.precise_alloc,
      refine_options.sort_seed, /*with_ids=*/true, /*sorted_keys=*/nullptr,
      refine_options.tuning);
  out.baseline_s = SecondsSince(stage);
  out.host_ms = SecondsSince(start) * 1e3;
  if (!baseline.ok()) {
    out.error = baseline.status().ToString();
    return out;
  }
  out.baseline = std::move(baseline.value());
  return out;
}

// refine_radix_1m: the paper's best configuration (3-bit LSD, T = 0.055)
// at 1M uniform keys, one job per seed of a fixed sequence. Jobs run one
// after another, each on a fresh engine that shares the workload's
// calibration cache and the sort pool its radix passes are striped over.
// A round is one job.
class RadixWorkload : public Workload {
 public:
  explicit RadixWorkload(const Config& config)
      : RadixWorkload(config, config.tiny ? 4096 : size_t{1} << 20,
                      config.tiny ? 2 : 4) {}
  RadixWorkload(const Config& config, size_t n, size_t jobs)
      : config_(config),
        n_(n),
        jobs_(jobs),
        trials_(config.tiny ? 2000 : 200000) {}

  std::map<std::string, std::string> Params() const override {
    return {{"entry", "ApproxSortEngine::SortApproxRefine"},
            {"algorithm", kLsd3.Name()},
            {"backend", "mlc-pcm"},
            {"knob", "0.055"},
            {"n", std::to_string(n_)},
            {"jobs_per_pass", std::to_string(jobs_)},
            {"round", "one job"},
            {"keys", "MakeKeys(uniform, n, mix(seed, job))"},
            {"sort_threads", std::to_string(config_.threads)},
            {"calibration_trials", std::to_string(trials_)}};
  }

  void Setup() override {
    // Drop the previous set-up's state first so repeated set-ups do not
    // stack their memory.
    specs_.clear();
    inputs_.clear();
    cache_.reset();
    sort_pool_.reset();
    sort_pool_ = std::make_unique<ThreadPool>(config_.threads);
    cache_ = Calibrate(trials_, config_.seed, sort_pool_.get(), {kPcmKnob},
                       &calibrate_s_);
    inputs_.reserve(jobs_);
    for (size_t j = 0; j < jobs_; ++j) {
      inputs_.push_back(core::MakeKeys(core::WorkloadKind::kUniform, n_,
                                       Mix(config_.seed, j)));
      specs_.push_back(RefineJobSpec{&inputs_.back(), kLsd3, kPcmKnob,
                                     Mix(config_.seed, 1000 + j)});
    }
    first_digests_.assign(specs_.size(), 0);
    const Clock::time_point start = Clock::now();
    core::ApproxSortEngine engine(EngineOptionsFor(0));
    engine_init_s_ = SecondsSince(start);
  }

  size_t Rounds() const override { return specs_.size(); }

  void RunRound(size_t j, bool first, Result* result) override {
    const Clock::time_point start = Clock::now();
    RefineJobOut out = RunRefineJob(specs_[j], EngineOptionsFor(j));
    const double round_s = SecondsSince(start);
    ++result->attempted;
    FinishRefineJob(specs_[j], &out);
    if (!out.ok) {
      result->Fail(JobName(j) + ": " + out.error);
      return;
    }
    if (first) {
      first_digests_[j] = out.digest;
      result->fingerprint.AddU64(out.digest);
      result->approx_write_cost += out.report.TotalWriteCost();
      result->baseline_write_cost += out.baseline.TotalWriteCost();
      result->sim_time_s += out.sim_us / 1e6;
      result->vlatency_us.push_back(out.sim_us);
      result->approx_stats += out.report.TotalStats();
      result->baseline_accesses += out.baseline_accesses;
    } else if (out.digest != first_digests_[j]) {
      result->Fail(JobName(j) + ": repeated job changed its output");
      return;
    }
    result->AddJob(j, out.host_ms);
    result->AddRound(round_s, specs_[j].keys->size(), 1);
  }

  void TracePass(Result* result) override {
    std::vector<RefineJobOut> outs(specs_.size());
    const Clock::time_point start = Clock::now();
    for (size_t j = 0; j < specs_.size(); ++j) {
      outs[j] = ComposeRefineJob(specs_[j], EngineOptionsFor(j));
    }
    const double wall = SecondsSince(start);
    double approx_s = 0, measure_s = 0, refine_s = 0, baseline_s = 0;
    double job_s = 0;
    double keys = 0, rem = 0, refine_ops = 0;
    for (size_t j = 0; j < specs_.size(); ++j) {
      RefineJobOut& out = outs[j];
      FinishRefineJob(specs_[j], &out);
      ++result->attempted;
      if (!out.ok) {
        result->Fail(JobName(j) + " traced: " + out.error);
        continue;
      }
      if (out.digest != first_digests_[j]) {
        result->Fail(JobName(j) +
                     ": stage composition differs from SortApproxRefine");
        continue;
      }
      approx_s += out.approx_stage_s;
      measure_s += out.measure_s;
      refine_s += out.refine_stage_s;
      baseline_s += out.baseline_s;
      job_s += out.host_ms / 1e3;
      keys += static_cast<double>(specs_[j].keys->size());
      rem += static_cast<double>(out.report.rem_estimate);
      refine_ops += static_cast<double>(out.report.RefineWriteOps());
    }
    const double jobs = static_cast<double>(specs_.size());
    auto& layers = result->layers;
    layers["refine.approx_stage_s"] = approx_s / jobs;
    layers["sortedness.measure_s"] = measure_s / jobs;
    layers["refine.refine_stage_s"] = refine_s / jobs;
    layers["refine.baseline_s"] = baseline_s / jobs;
    layers["refine.baseline_share"] = job_s > 0 ? baseline_s / job_s : 0.0;
    layers["refine.rem_estimate"] = rem;
    layers["refine.refine_write_ops"] = refine_ops;
    layers["trace.keys_per_s"] = wall > 0 ? keys / wall : 0.0;
  }

 private:
  std::string JobName(size_t j) const {
    return config_.workload + " job " + std::to_string(j) + " (" +
           specs_[j].algorithm.Name() + ", knob " +
           std::to_string(specs_[j].knob) + ")";
  }

  core::EngineOptions EngineOptionsFor(size_t j) const {
    core::EngineOptions options;
    options.seed = specs_[j].engine_seed;
    options.calibration_trials = trials_;
    options.shared_calibration = cache_;
    options.sort_pool = sort_pool_.get();
    return options;
  }

  Config config_;
  size_t n_;
  size_t jobs_;
  uint64_t trials_;
  std::unique_ptr<ThreadPool> sort_pool_;
  std::shared_ptr<mlc::CalibrationCache> cache_;
  std::vector<std::vector<uint32_t>> inputs_;
  std::vector<RefineJobSpec> specs_;
  std::vector<uint64_t> first_digests_;
};

// ---------------------------------------------------------------------------
// The external-sort reference: ExternalSort as `approxmem_cli --cmd=extsort
// --payloads=1 --compare=1` runs it, traced for the extsort layer. One job
// (and one round) is the approx-refine configuration plus its precise
// comparison, both verified as record permutation certificates by the
// benchmark itself.

struct ExtsortOut {
  bool ok = false;
  std::string error;
  double host_s = 0.0;
  extsort::ExternalSortReport report;
};

// The benchmark's own certificate over the output file: keys sorted,
// rowids a permutation of [0, n), and key == input[rowid].
std::string CheckRecords(const std::vector<uint32_t>& input,
                         const std::vector<uint32_t>& records) {
  const size_t n = input.size();
  if (records.size() != 2 * n) return "record count mismatch";
  std::vector<uint8_t> seen(n, 0);
  for (size_t i = 0; i < n; ++i) {
    const uint32_t key = records[2 * i];
    const uint32_t rowid = records[2 * i + 1];
    if (i > 0 && key < records[2 * i - 2]) return "keys out of order";
    if (rowid >= n || seen[rowid]) return "rowids not a permutation";
    seen[rowid] = 1;
    if (input[rowid] != key) return "key does not match input[rowid]";
  }
  return "";
}

class ExtsortWorkload : public Workload {
 public:
  ExtsortWorkload(const Config& config, size_t n)
      : config_(config), n_(n), trials_(config.tiny ? 2000 : 200000) {}

  std::map<std::string, std::string> Params() const override {
    return {{"entry", "extsort::ExternalSort (approx-refine + precise)"},
            {"algorithm", kLsd3.Name()},
            {"knob", "0.055"},
            {"n", std::to_string(n_)},
            {"budget_bytes", std::to_string(kBudget)},
            {"fan_in", "8"},
            {"record_payloads", "1"},
            {"round", "one job: both configurations"},
            {"io_threads", std::to_string(config_.threads)},
            {"keys", "MakeKeys(uniform, n, seed)"},
            {"calibration_trials", std::to_string(trials_)}};
  }

  void Setup() override {
    keys_.clear();
    cache_.reset();
    pool_.reset();
    pool_ = std::make_unique<ThreadPool>(config_.threads);
    cache_ = Calibrate(trials_, config_.seed, pool_.get(), {kPcmKnob},
                       &calibrate_s_);
    keys_ = core::MakeKeys(core::WorkloadKind::kUniform, n_, config_.seed);
    const Clock::time_point start = Clock::now();
    core::ApproxSortEngine engine(EngineOptions());
    engine_init_s_ = SecondsSince(start);
  }

  size_t Rounds() const override { return 1; }

  void RunRound(size_t /*r*/, bool first, Result* result) override {
    const ExtsortOut approx_out = SortOnce(/*approx_refine=*/true);
    const ExtsortOut precise_out = SortOnce(/*approx_refine=*/false);
    ++result->attempted;
    if (!approx_out.ok || !precise_out.ok) {
      result->Fail("extsort reference: " + approx_out.error + " " +
                   precise_out.error);
      return;
    }
    const uint64_t digest = PairDigest(approx_out.report, precise_out.report);
    if (first) {
      first_digest_ = digest;
      result->fingerprint.AddU64(digest);
      result->approx_write_cost = approx_out.report.memory_write_cost;
      result->baseline_write_cost = precise_out.report.memory_write_cost;
      const double makespan_us = approx_out.report.Total().makespan_us;
      result->sim_time_s = makespan_us / 1e6;
      result->vlatency_us.push_back(makespan_us);
      result->approx_stats = approx_out.report.memory_stats;
      result->baseline_accesses =
          precise_out.report.memory_stats.word_reads +
          precise_out.report.memory_stats.word_writes;
    } else if (digest != first_digest_) {
      result->Fail("extsort reference: repeated job changed its output");
      return;
    }
    const double job_s = approx_out.host_s + precise_out.host_s;
    result->AddJob(0, job_s * 1e3);
    result->AddRound(job_s, n_, 1);
  }

  void TracePass(Result* result) override {
    const ExtsortOut approx_out = SortOnce(true);
    const ExtsortOut precise_out = SortOnce(false);
    ++result->attempted;
    if (!approx_out.ok || !precise_out.ok) {
      result->Fail("extsort reference traced: " + approx_out.error + " " +
                   precise_out.error);
      return;
    }
    if (PairDigest(approx_out.report, precise_out.report) != first_digest_) {
      result->Fail("extsort reference: traced run differs from the first pass");
      return;
    }
    auto& layers = result->layers;
    layers["extsort.sort_s"] = approx_out.host_s;
    layers["extsort.precise_sort_s"] = precise_out.host_s;
    const extsort::ExternalSortReport& report = approx_out.report;
    layers["extsort.initial_runs"] = static_cast<double>(report.initial_runs);
    layers["extsort.merge_passes"] = static_cast<double>(report.merge_passes);
    layers["extsort.bytes_spilled"] =
        static_cast<double>(report.bytes_spilled);
    layers["extsort.run_formation_makespan_s"] =
        report.run_formation.makespan_us / 1e6;
    layers["extsort.merge_makespan_s"] = report.merge.makespan_us / 1e6;
    layers["extsort.overlap_ratio"] = report.Total().OverlapRatio();
    layers["extsort.budget_high_water_frac"] =
        static_cast<double>(report.budget_high_water) /
        static_cast<double>(kBudget);
    layers["trace.keys_per_s"] =
        static_cast<double>(n_) / (approx_out.host_s + precise_out.host_s);
  }

 private:
  static constexpr size_t kBudget = size_t{1} << 20;

  core::EngineOptions EngineOptions() const {
    core::EngineOptions options;
    options.seed = config_.seed;
    options.calibration_trials = trials_;
    options.shared_calibration = cache_;
    return options;
  }

  // One ExternalSort call on a fresh engine and device, as the CLI's
  // run_once does; only the ExternalSort call is timed.
  ExtsortOut SortOnce(bool approx_refine) {
    ExtsortOut out;
    extsort::ExternalSortOptions options;
    options.memory_budget_bytes = kBudget;
    options.algorithm = kLsd3;
    options.t = kPcmKnob;
    options.use_approx_refine = approx_refine;
    options.merge_fan_in = 8;
    options.record_payloads = true;
    core::ApproxSortEngine engine(EngineOptions());
    extsort::AsyncDevice device(extsort::AsyncDeviceConfig{}, pool_.get());
    const int input = device.CreateFile();
    device.Wait(device.SubmitWrite(input, keys_, 0.0));
    device.ResetClock();
    int output = -1;
    const Clock::time_point start = Clock::now();
    auto report = extsort::ExternalSort(engine, device, input, options,
                                        &output);
    out.host_s = SecondsSince(start);
    if (!report.ok()) {
      out.error = report.status().ToString();
      return out;
    }
    out.report = std::move(report.value());
    const std::string bad = CheckRecords(keys_, device.PeekData(output));
    if (!out.report.verified || !bad.empty()) {
      out.error = std::string(approx_refine ? "approx-refine" : "precise") +
                  " output failed its certificate: " +
                  (bad.empty() ? "report unverified" : bad);
      return out;
    }
    out.ok = true;
    return out;
  }

  static uint64_t PairDigest(const extsort::ExternalSortReport& a,
                             const extsort::ExternalSortReport& b) {
    Digest digest;
    for (const extsort::ExternalSortReport* r : {&a, &b}) {
      digest.AddU64(r->spill_digest);
      digest.AddU64(r->output_digest);
      digest.AddStats(r->memory_stats);
      digest.AddU64(r->initial_runs);
      digest.AddU64(r->merge_passes);
      digest.AddU64(r->bytes_spilled);
      digest.AddU64(r->total_rem);
      digest.AddU64(r->budget_high_water);
      digest.AddDouble(r->run_formation.makespan_us);
      digest.AddDouble(r->merge.makespan_us);
      digest.AddDouble(r->run_formation.io_busy_us);
      digest.AddDouble(r->merge.io_busy_us);
    }
    return digest.value();
  }

  Config config_;
  size_t n_;
  uint64_t trials_;
  std::unique_ptr<ThreadPool> pool_;
  std::shared_ptr<mlc::CalibrationCache> cache_;
  std::vector<uint32_t> keys_;
  uint64_t first_digest_ = 0;
};

// ---------------------------------------------------------------------------
// serve_mixed: SortService::Run over a MakeRandomTrace trace shaped like
// `--cmd=serve`. A round is the whole trace on a fresh service.

struct TenantProfile {
  const char* name;
  const char* backend;
};
constexpr TenantProfile kTenants[] = {
    {"tenant-pcm", "mlc-pcm"},
    {"tenant-banked", "mlc-pcm-banked"},
    {"tenant-spin", "spintronic"},
};

// Seeds the trace's job mix. It is part of the workload's definition, not
// of its input: with the mix drawn from --seed, one seed's trace can hold
// twice the keys of another's and the metrics would measure the draw.
constexpr uint64_t kServeShapeSeed = 1;

}  // namespace

ServeShape ServeShapeFor(const Config& config) {
  ServeShape shape;
  if (config.tiny) {
    shape.bursts = 4;
    shape.max_burst_jobs = 6;
    shape.max_n = 1024;
  }
  return shape;
}

service::RequestTrace ServeTrace(const Config& config,
                                 const ServeShape& shape, size_t k) {
  service::TraceGenOptions gen;
  gen.seed = kServeShapeSeed;
  for (const TenantProfile& tenant : kTenants) {
    gen.tenants.push_back(tenant.name);
  }
  gen.bursts = shape.bursts;
  gen.max_burst_jobs = shape.max_burst_jobs;
  gen.max_n = shape.max_n;
  gen.extsort_fraction = shape.extsort_fraction;
  // No all-equal jobs: their keys are one drawn value whose MLC cell
  // levels alone decide how often the approx stage corrupts, so a handful
  // of them moved the tenants' Eq. 2 ratios by 30% from seed to seed.
  gen.workloads = {core::WorkloadKind::kUniform, core::WorkloadKind::kSkewed,
                   core::WorkloadKind::kNearlySorted,
                   core::WorkloadKind::kReversed};
  service::RequestTrace trace = service::MakeRandomTrace(gen);
  const uint64_t trace_seed = Mix(config.seed, k);
  uint64_t job = 0;
  for (auto& burst : trace.bursts) {
    for (service::SortRequest& request : burst) {
      request.seed = Mix(trace_seed, job++);
    }
  }
  return trace;
}

namespace {

// A pass is kTracesPerPass copies of the job mix with different keys, each
// on a fresh service, so the simulated results average over more than one
// draw of every job's keys.
class ServeWorkload : public Workload {
 public:
  explicit ServeWorkload(const Config& config)
      : ServeWorkload(config, ServeShapeFor(config),
                      config.tiny ? 1 : kTracesPerPass) {}
  ServeWorkload(const Config& config, const ServeShape& shape,
                size_t traces_per_pass)
      : config_(config),
        shape_(shape),
        traces_per_pass_(traces_per_pass),
        trials_(config.tiny ? 2000 : 20000) {}

  std::map<std::string, std::string> Params() const override {
    return {{"entry", "service::SortService::Run"},
            {"tenants", "mlc-pcm,mlc-pcm-banked,spintronic"},
            {"shards", "4"},
            {"service_threads", std::to_string(config_.threads)},
            {"bursts", std::to_string(shape_.bursts)},
            {"max_burst_jobs", std::to_string(shape_.max_burst_jobs)},
            {"n_range", "16.." + std::to_string(shape_.max_n)},
            {"extsort_fraction", "0.1"},
            {"round", "one trace on a fresh service"},
            {"traces_per_pass", std::to_string(traces_per_pass_)},
            {"trace", "MakeRandomTrace(shape seed 1); keys of job i of trace "
                      "k: mix(mix(seed, k), i)"},
            {"key_kinds", "uniform,skewed,nearly_sorted,reversed"},
            {"jobs_per_trace", std::to_string(traces_.at(0).TotalJobs())},
            {"load_model", "closed loop: burst k+1 after batch k"},
            {"health_monitor", "1"},
            {"wear_leveling", "1"},
            {"calibration_trials", std::to_string(trials_)}};
  }

  void Setup() override {
    service_.reset();
    cache_.reset();
    pool_.reset();
    traces_.clear();
    pool_ = std::make_unique<ThreadPool>(config_.threads);
    cache_ = Calibrate(trials_, config_.seed, pool_.get(), {kPcmKnob},
                       &calibrate_s_);
    for (size_t k = 0; k < traces_per_pass_; ++k) {
      traces_.push_back(ServeTrace(config_, shape_, k));
    }
    first_digests_.assign(traces_per_pass_, 0);
    tenant_costs_.assign(std::size(kTenants), {0.0, 0.0});
    const Clock::time_point start = Clock::now();
    core::EngineOptions options;
    options.seed = config_.seed;
    options.calibration_trials = trials_;
    options.shared_calibration = cache_;
    options.health.enabled = true;
    core::ApproxSortEngine engine(options);
    engine_init_s_ = SecondsSince(start);
    service_ = MakeService(0);
  }

  size_t Rounds() const override { return traces_.size(); }

  void RunRound(size_t k, bool first, Result* result) override {
    // The first round runs on the service Setup built; later ones build
    // their own outside the timed call.
    std::unique_ptr<service::SortService> svc =
        service_ ? std::move(service_) : MakeService(k);
    const Clock::time_point start = Clock::now();
    svc->Run(traces_[k]);
    const double round_s = SecondsSince(start);
    const uint64_t digest = ServiceDigest(*svc);
    const size_t job_base = k * traces_[k].TotalJobs();
    uint64_t keys = 0;
    uint64_t jobs = 0;
    for (size_t i = 0; i < svc->jobs().size(); ++i) {
      const service::JobRecord& record = svc->jobs()[i];
      ++result->attempted;
      if (record.state != service::JobState::kCompleted || !record.verified) {
        result->Fail("serve_mixed job " + record.request.Name() + ": " +
                     std::string(service::JobStateName(record.state)) + " " +
                     record.status.ToString());
        continue;
      }
      result->AddJob(job_base + i, record.latency_seconds * 1e3);
      keys += record.request.n;
      ++jobs;
    }
    result->AddRound(round_s, keys, jobs);
    if (!first) {
      if (digest != first_digests_[k]) {
        result->Fail("serve_mixed trace " + std::to_string(k) +
                     ": repeated trace changed its ledgers");
      }
      return;
    }
    first_digests_[k] = digest;
    result->fingerprint.AddU64(digest);
    // Tenants account in different units (ns on PCM, energy on
    // spintronic), so the workload ratio is the mean of tenant ratios.
    double ratio_sum = 0.0;
    for (size_t t = 0; t < std::size(kTenants); ++t) {
      const service::TenantLedger ledger =
          svc->tenant_ledger(kTenants[t].name);
      tenant_costs_[t].first += ledger.cost.write_cost;
      tenant_costs_[t].second += ledger.baseline_write_cost;
      if (tenant_costs_[t].second > 0) {
        ratio_sum += tenant_costs_[t].first / tenant_costs_[t].second;
      }
      result->approx_stats += ledger.cost;
    }
    result->write_cost_ratio =
        ratio_sum / static_cast<double>(std::size(kTenants));
    result->sim_time_s += svc->virtual_now_us() / 1e6;
    for (const service::JobRecord& record : svc->jobs()) {
      if (record.state == service::JobState::kCompleted) {
        result->vlatency_us.push_back(record.virtual_latency_us);
      }
    }
  }

  void TracePass(Result* result) override;

 private:
  static constexpr size_t kTracesPerPass = 3;

  std::unique_ptr<service::SortService> MakeService(size_t k) const {
    service::ServiceOptions options;
    options.shards = 4;
    options.threads = config_.threads;
    options.seed = Mix(config_.seed, 0x5e7e + k) >> 1;
    options.calibration_trials = trials_;
    options.shared_calibration = cache_;
    auto svc = std::make_unique<service::SortService>(options);
    for (size_t i = 0; i < std::size(kTenants); ++i) {
      service::TenantSpec tenant;
      tenant.name = kTenants[i].name;
      tenant.backend = kTenants[i].backend;
      tenant.seed = options.seed + i;
      const approxmem::Status status = svc->RegisterTenant(tenant);
      APPROXMEM_CHECK_OK(status);
    }
    return svc;
  }

  static uint64_t ServiceDigest(const service::SortService& svc) {
    Digest digest;
    for (const TenantProfile& tenant : kTenants) {
      digest.AddU64(svc.tenant_ledger(tenant.name).Digest());
    }
    for (const service::JobRecord& record : svc.jobs()) {
      digest.AddU64(record.ticket);
      digest.AddU64(static_cast<uint64_t>(record.state));
      digest.AddU64(record.keys_digest);
      digest.AddU64(record.ids_digest);
      digest.AddU64(record.attempts);
      digest.AddDouble(record.virtual_latency_us);
    }
    digest.AddDouble(svc.virtual_now_us());
    return digest.value();
  }

  Config config_;
  ServeShape shape_;
  size_t traces_per_pass_;
  uint64_t trials_;
  std::unique_ptr<ThreadPool> pool_;
  std::shared_ptr<mlc::CalibrationCache> cache_;
  std::vector<service::RequestTrace> traces_;
  std::unique_ptr<service::SortService> service_;
  std::vector<uint64_t> first_digests_;
  /// Per tenant: approx-refine and precise-baseline write cost of the
  /// first pass so far.
  std::vector<std::pair<double, double>> tenant_costs_;
};

// The traced service drive: SortService::Run's own loop (submit a burst,
// run a batch, drain) with Submit and RunBatch timed individually, on the
// pass's first trace.
void ServeWorkload::TracePass(Result* result) {
  std::vector<double> submit_us;
  std::vector<double> batch_ms;
  std::unique_ptr<service::SortService> svc = MakeService(0);
  const Clock::time_point start = Clock::now();
  const auto run_batch = [&] {
    const Clock::time_point batch_start = Clock::now();
    svc->RunBatch();
    batch_ms.push_back(SecondsSince(batch_start) * 1e3);
  };
  for (const auto& burst : traces_[0].bursts) {
    for (const service::SortRequest& request : burst) {
      const Clock::time_point submit_start = Clock::now();
      const auto ticket = svc->Submit(request);
      submit_us.push_back(SecondsSince(submit_start) * 1e6);
      if (!ticket.ok()) result->Fail(ticket.status().ToString());
    }
    run_batch();
  }
  const auto pending = [&] {
    for (const service::JobRecord& record : svc->jobs()) {
      if (record.state == service::JobState::kQueued ||
          record.state == service::JobState::kDeferred) {
        return true;
      }
    }
    return false;
  };
  while (pending()) run_batch();
  const double wall = SecondsSince(start);
  ++result->attempted;
  if (ServiceDigest(*svc) != first_digests_[0]) {
    result->Fail("serve_mixed: traced drive differs from SortService::Run");
  }
  uint64_t keys = 0;
  for (const service::JobRecord& record : svc->jobs()) {
    if (record.state == service::JobState::kCompleted) keys += record.request.n;
  }
  const service::ServiceStats& stats = svc->stats();
  auto& layers = result->layers;
  layers["service.run_batch_ms"] = Median(batch_ms);
  layers["service.run_batch_tail_ms"] = TailOf(batch_ms).value;
  layers["service.submit_us"] = Median(submit_us);
  layers["service.batches"] = static_cast<double>(stats.batches);
  layers["service.deferral_events"] =
      static_cast<double>(stats.deferral_events);
  layers["service.jobs_shed"] = static_cast<double>(stats.jobs_shed);
  layers["service.backlog_high_water"] =
      static_cast<double>(stats.backlog_high_water);
  layers["service.cooldown_batches"] =
      static_cast<double>(stats.cooldown_batches);
  layers["service.quarantined_regions"] =
      static_cast<double>(stats.quarantined_regions);
  layers["trace.keys_per_s"] = wall > 0 ? keys / wall : 0.0;
}

// Runs `workload` as a traced run would (set-up, first pass, traced pass)
// and merges what it measured into `result` without overwriting metrics
// the main workload already set.
void TraceReference(Workload& workload, Result* result) {
  Result reference;
  workload.Setup();
  for (size_t r = 0; r < workload.Rounds(); ++r) {
    workload.RunRound(r, /*first=*/true, &reference);
  }
  workload.TracePass(&reference);
  reference.layers.erase("trace.keys_per_s");
  for (const auto& [name, value] : reference.layers) {
    result->layers.emplace(name, value);
  }
  result->attempted += reference.attempted;
  result->failed += reference.failed;
  result->errors.insert(result->errors.end(), reference.errors.begin(),
                        reference.errors.end());
}

}  // namespace

void TraceReferenceRefine(const Config& config, size_t n, Result* result) {
  RadixWorkload workload(config, n, 1);
  TraceReference(workload, result);
}

void TraceReferenceExtsort(const Config& config, Result* result) {
  ExtsortWorkload workload(config, config.tiny ? 100000 : 262144);
  TraceReference(workload, result);
}

void TraceReferenceService(const Config& config, Result* result) {
  ServeShape shape;
  shape.bursts = 6;
  shape.max_burst_jobs = 8;
  shape.max_n = config.tiny ? 1024 : 2048;
  ServeWorkload workload(config, shape, 1);
  TraceReference(workload, result);
}

std::unique_ptr<Workload> MakeWorkload(const Config& config) {
  if (config.workload == "refine_radix_1m") {
    return std::make_unique<RadixWorkload>(config);
  }
  if (config.workload == "serve_mixed") {
    return std::make_unique<ServeWorkload>(config);
  }
  return nullptr;
}

size_t ProbeSortN(const Config& config) {
  if (config.workload == "refine_radix_1m") {
    return config.tiny ? 4096 : size_t{1} << 20;
  }
  return ServeShapeFor(config).max_n;
}

}  // namespace perfbench
