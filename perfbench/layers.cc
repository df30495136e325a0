// Per-layer probes of the traced run. Each probe times calls into one
// module's public functions from outside the library; nothing inside
// src/ is instrumented. A probe only fills metrics the workload's own
// traced pass left unset, so a workload that exercises a layer reports it
// from its own execution and the others report it at a reference shape.
#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "approx/approx_array.h"
#include "approx/memory_backend.h"
#include "common/random.h"
#include "common/thread_pool.h"
#include "core/engine.h"
#include "core/job_plan.h"
#include "core/workload.h"
#include "extsort/async_device.h"
#include "extsort/external_sort.h"
#include "extsort/extsort_plan.h"
#include "extsort/loser_tree.h"
#include "mlc/calibration.h"
#include "mlc/word_codec.h"
#include "perfbench.h"
#include "sort/sort_common.h"
#include "sortedness/measures.h"

namespace perfbench {
namespace {

using approxmem::Rng;
using approxmem::ThreadPool;
namespace approx = approxmem::approx;
namespace core = approxmem::core;
namespace extsort = approxmem::extsort;
namespace mlc = approxmem::mlc;
namespace sort = approxmem::sort;
namespace sortedness = approxmem::sortedness;

using Layers = std::map<std::string, double>;

// The mlc-pcm knob every workload runs at.
constexpr double kKnob = 0.055;

bool Missing(const Layers& layers, const std::string& name) {
  return layers.count(name) == 0;
}

// Median host seconds of `reps` calls of fn.
template <typename Fn>
double TimeMedian(int reps, Fn&& fn) {
  std::vector<double> times;
  for (int r = 0; r < reps; ++r) {
    const Clock::time_point start = Clock::now();
    fn();
    times.push_back(SecondsSince(start));
  }
  return Median(times);
}

// A probe engine with its own small calibration (the probes time kernels,
// not calibration).
core::EngineOptions ProbeEngineOptions(const Config& config,
                                       const std::string& backend) {
  core::EngineOptions options;
  options.backend = backend;
  options.seed = config.seed;
  options.calibration_trials = config.tiny ? 2000 : 20000;
  return options;
}

// ---- mlc: word codec and batched error sampler.
void ProbeMlc(const Config& config, double knob,
              const std::vector<uint32_t>& words, Layers* layers) {
  const size_t count = words.size();
  const mlc::MlcConfig mlc_config;
  std::vector<uint8_t> levels(count * mlc_config.CellsPerWord());
  const double encode_s = TimeMedian(5, [&] {
    mlc::EncodeWords(words.data(), count, mlc_config, levels.data());
  });
  (*layers)["mlc.encode_ns_per_word"] = encode_s * 1e9 / count;

  mlc::CalibrationCache cache(mlc_config, config.tiny ? 2000 : 20000,
                              config.seed);
  const mlc::BatchErrorSampler sampler(cache.ForT(knob));
  std::vector<mlc::BatchErrorSampler::WordStats> stats(count);
  std::vector<double> word_error(count);
  Rng rng(config.seed);
  const double sampler_s = TimeMedian(5, [&] {
    sampler.StatsForWords(words.data(), count, stats.data());
    for (size_t i = 0; i < count; ++i) {
      word_error[i] = 1.0 - stats[i].no_error;
    }
    size_t pos = 0;
    while (pos < count) {
      pos += mlc::BatchErrorSampler::FirstCorrupted(word_error.data() + pos,
                                                    count - pos, rng) +
             1;
    }
  });
  (*layers)["mlc.sampler_ns_per_word"] = sampler_s * 1e9 / count;
}

// ---- approx: write model, instrumented arrays, banked substrate, alloc.
void ProbeApprox(const Config& config, double knob,
                 const std::vector<uint32_t>& words, Result* result) {
  Layers& layers = result->layers;
  const size_t count = words.size();
  core::ApproxSortEngine engine(
      ProbeEngineOptions(config, std::string(approx::kPcmBackendName)));
  approx::ApproxMemory& memory = engine.memory();

  auto model = memory.backend().ModelFor(approx::AllocSpec::Approx(knob, count));
  if (!model.ok()) {
    result->Fail("approx probe: " + model.status().ToString());
    return;
  }
  std::vector<approx::WordWriteOutcome> outcomes(count);
  Rng rng(config.seed);
  const double batch_s = TimeMedian(3, [&] {
    (*model)->WriteBatch(words.data(), count, rng, outcomes.data());
  });
  layers["approx.write_batch_ns_per_word"] = batch_s * 1e9 / count;

  approx::ApproxArrayU32 array = memory.NewApproxArray(count, knob);
  const double range_s =
      TimeMedian(3, [&] { array.SetRange(0, words.data(), count); });
  layers["approx.set_range_ns_per_word"] = range_s * 1e9 / count;

  const size_t scalar = std::min<size_t>(count, config.tiny ? 4096 : 1 << 18);
  const double set_s = TimeMedian(3, [&] {
    for (size_t i = 0; i < scalar; ++i) array.Set(i, words[i]);
  });
  layers["approx.set_ns_per_word"] = set_s * 1e9 / scalar;
  array.ResetStats();
  const double get_s = TimeMedian(3, [&] {
    for (size_t i = 0; i < scalar; ++i) array.Get(i);
  });
  layers["approx.get_ns_per_word"] = get_s * 1e9 / scalar;
  if (array.stats().word_reads != 3 * scalar) {
    result->Fail("approx probe: Get was not charged");
  }

  core::ApproxSortEngine banked(ProbeEngineOptions(
      config, std::string(approx::kBankedPcmBackendName)));
  const size_t banked_words = std::min<size_t>(count, 1 << 16);
  approx::ApproxArrayU32 banked_array =
      banked.memory().NewApproxArray(banked_words, knob);
  const double banked_s = TimeMedian(3, [&] {
    for (size_t i = 0; i < banked_words; ++i) banked_array.Set(i, words[i]);
  });
  layers["approx.banked_set_ns_per_word"] = banked_s * 1e9 / banked_words;

  // Service-sized allocations on a health-monitored engine, as every
  // service shard allocates them (canary probes included).
  core::EngineOptions monitored =
      ProbeEngineOptions(config, std::string(approx::kPcmBackendName));
  monitored.health.enabled = true;
  core::ApproxSortEngine service_engine(monitored);
  constexpr int kAllocs = 200;
  const double alloc_s = TimeMedian(3, [&] {
    for (int i = 0; i < kAllocs; ++i) {
      approx::ApproxArrayU32 a =
          service_engine.memory().NewApproxArray(8192, knob);
      approx::ApproxArrayU32 p = service_engine.memory().NewPreciseArray(8192);
    }
  });
  layers["approx.alloc_us"] = alloc_s * 1e6 / (2 * kAllocs);
}

// ---- sort and sortedness: RunSort on an approx array at the workload's n.
void ProbeSort(const Config& config, size_t sort_n, Result* result) {
  Layers& layers = result->layers;
  const std::vector<uint32_t> keys = core::MakeKeys(
      core::WorkloadKind::kUniform, sort_n, config.seed ^ 0x50b3ULL);
  core::ApproxSortEngine engine(
      ProbeEngineOptions(config, std::string(approx::kPcmBackendName)));
  approx::ApproxMemory& memory = engine.memory();
  ThreadPool pool(config.threads);
  const int reps = sort_n >= (size_t{1} << 20) ? 1 : 3;

  const auto time_sort = [&](const sort::AlgorithmId& algorithm,
                             ThreadPool* sort_pool, bool measure) {
    std::vector<double> times;
    for (int r = 0; r < reps; ++r) {
      approx::ApproxArrayU32 array =
          memory.NewApproxArray(keys.size(), kKnob);
      array.Store(keys);
      sort::SortSpec spec;
      spec.keys = &array;
      spec.alloc_key_buffer = [&](size_t n) {
        return memory.NewApproxArray(n, kKnob);
      };
      spec.tuning.pool = sort_pool;
      Rng rng(config.seed);
      const Clock::time_point start = Clock::now();
      const approxmem::Status status = sort::RunSort(spec, algorithm, rng);
      times.push_back(SecondsSince(start));
      if (!status.ok()) {
        result->Fail("sort probe " + algorithm.Name() + ": " +
                     status.ToString());
      }
      if (measure && r == 0 && Missing(layers, "sortedness.measure_s")) {
        const Clock::time_point measure_start = Clock::now();
        const sortedness::SortednessReport report = sortedness::Measure(array);
        layers["sortedness.measure_s"] = SecondsSince(measure_start);
        if (report.n != keys.size()) result->Fail("sortedness probe: bad n");
      }
    }
    return Median(times);
  };

  const sort::AlgorithmId lsd3{sort::SortKind::kLsdRadix, 3};
  const double lsd_serial = time_sort(lsd3, nullptr, /*measure=*/true);
  const double lsd_striped = time_sort(lsd3, &pool, false);
  layers["sort.run_sort_s.lsd3"] = lsd_serial;
  layers["sort.striped_speedup"] =
      lsd_striped > 0 ? lsd_serial / lsd_striped : 0.0;
  layers["sort.run_sort_s.quicksort"] =
      time_sort({sort::SortKind::kQuicksort, 0}, nullptr, false);
  layers["sort.run_sort_s.mergesort"] =
      time_sort({sort::SortKind::kMergesort, 0}, nullptr, false);
  layers["sort.run_sort_s.msd3"] =
      time_sort({sort::SortKind::kMsdRadix, 3}, nullptr, false);
}

// ---- core: serve_mixed's jobs replayed serially through the job plans on
// standalone engines, one per tenant backend.
void ProbeCore(const Config& config, Result* result) {
  Layers& layers = result->layers;
  const approxmem::service::RequestTrace trace =
      ServeTrace(config, ServeShapeFor(config), 0);
  const std::map<std::string, std::string> backends = {
      {"tenant-pcm", "mlc-pcm"},
      {"tenant-banked", "mlc-pcm-banked"},
      {"tenant-spin", "spintronic"}};
  std::map<std::string, std::unique_ptr<core::ApproxSortEngine>> engines;
  const size_t max_in_memory = config.tiny ? 8 : 40;
  const size_t max_extsort = config.tiny ? 1 : 3;
  std::vector<double> in_memory_ms;
  std::vector<double> extsort_ms;
  double attempts = 0;
  uint64_t ticket = 0;
  for (const auto& burst : trace.bursts) {
    for (const approxmem::service::SortRequest& request : burst) {
      ++ticket;
      const bool is_extsort =
          request.job_class == core::JobClass::kExtSort;
      std::vector<double>& times = is_extsort ? extsort_ms : in_memory_ms;
      if (times.size() >= (is_extsort ? max_extsort : max_in_memory)) {
        continue;
      }
      std::unique_ptr<core::ApproxSortEngine>& engine =
          engines[request.tenant];
      if (engine == nullptr) {
        core::EngineOptions options =
            ProbeEngineOptions(config, backends.at(request.tenant));
        options.health.enabled = true;
        engine = std::make_unique<core::ApproxSortEngine>(options);
      }
      core::JobContext context;
      context.engine = engine.get();
      context.ticket = ticket;
      context.knob = engine->memory().backend().default_approx_knob();
      std::unique_ptr<core::JobPlan> plan;
      if (is_extsort) {
        plan = std::make_unique<extsort::ExtsortJobPlan>(
            request, extsort::ExtsortPlanOptions{});
      } else {
        plan = std::make_unique<core::InMemoryJobPlan>(request);
      }
      const Clock::time_point start = Clock::now();
      const core::JobOutcome outcome = plan->Execute(context);
      times.push_back(SecondsSince(start) * 1e3);
      ++result->attempted;
      if (!outcome.status.ok() || !outcome.verified) {
        result->Fail("core probe " + request.Name() + ": " +
                     outcome.status.ToString());
      }
      attempts += static_cast<double>(outcome.attempts);
    }
  }
  layers["core.job_execute_ms"] = Median(in_memory_ms);
  layers["core.extsort_job_execute_ms"] = Median(extsort_ms);
  layers["core.resilience_attempts"] = attempts;
}

// ---- extsort: run sort, device, loser tree.
void ProbeExtsort(const Config& config, Result* result) {
  Layers& layers = result->layers;
  ThreadPool pool(config.threads);

  {
    // One run of a 1 MiB record-payload budget.
    const size_t run =
        (size_t{1} << 20) / extsort::kRecordRunFootprintBytesPerElement;
    const std::vector<uint32_t> keys = core::MakeKeys(
        core::WorkloadKind::kUniform, run, config.seed ^ 0x4c1ULL);
    core::ApproxSortEngine engine(
        ProbeEngineOptions(config, std::string(approx::kPcmBackendName)));
    uint64_t stream = 0;
    const double run_s = TimeMedian(5, [&] {
      std::vector<uint32_t> final_keys;
      std::vector<uint32_t> final_ids;
      auto report = engine.SortRunApproxRefine(
          keys, {sort::SortKind::kLsdRadix, 3}, kKnob, ++stream,
          &final_keys, &final_ids);
      if (!report.ok() || !report->verified()) {
        result->Fail("extsort run-sort probe unverified");
      }
    });
    layers["extsort.run_sort_ms"] = run_s * 1e3;
  }

  {
    const size_t chunk = config.tiny ? 1 << 14 : 1 << 20;
    constexpr int kChunks = 4;
    const std::vector<uint32_t> data(chunk, 0x5a5a5a5au);
    const double device_s = TimeMedian(3, [&] {
      extsort::AsyncDevice device(extsort::AsyncDeviceConfig{}, &pool);
      const int file = device.CreateFile();
      std::vector<extsort::AsyncDevice::TransferId> ids;
      for (int c = 0; c < kChunks; ++c) {
        ids.push_back(device.SubmitWrite(file, data, 0.0));
      }
      for (const auto id : ids) device.Wait(id);
      ids.clear();
      for (int c = 0; c < kChunks; ++c) {
        ids.push_back(device.SubmitRead(file, c * chunk, chunk, 0.0));
      }
      for (const auto id : ids) {
        device.Wait(id);
        if (device.TakeData(id).size() != chunk) {
          result->Fail("device probe: short read");
        }
      }
    });
    const double bytes = 2.0 * kChunks * chunk * sizeof(uint32_t);
    layers["extsort.device_mb_per_s"] = bytes / device_s / 1e6;
  }

  {
    constexpr size_t kWays = 8;
    const size_t run = config.tiny ? 4096 : 65536;
    std::vector<std::vector<uint32_t>> runs;
    for (size_t w = 0; w < kWays; ++w) {
      runs.push_back(core::MakeKeys(core::WorkloadKind::kUniform, run,
                                    config.seed + w));
      std::sort(runs.back().begin(), runs.back().end());
    }
    std::vector<uint32_t> merged;
    merged.reserve(kWays * run);
    const double merge_s = TimeMedian(5, [&] {
      merged.clear();
      extsort::LoserTree tree(kWays);
      std::vector<size_t> cursor(kWays, 0);
      for (size_t w = 0; w < kWays; ++w) tree.Update(w, runs[w][0], true);
      while (!tree.Exhausted()) {
        const size_t w = tree.MinWay();
        merged.push_back(tree.MinKey());
        const size_t next = ++cursor[w];
        tree.Update(w, next < run ? runs[w][next] : 0, next < run);
      }
    });
    if (merged.size() != kWays * run ||
        !std::is_sorted(merged.begin(), merged.end())) {
      result->Fail("loser-tree probe: merge output not sorted");
    }
    layers["extsort.loser_tree_ns_per_elem"] =
        merge_s * 1e9 / static_cast<double>(kWays * run);
  }
}

}  // namespace

void RunLayerProbes(const Config& config, size_t sort_n, Result* result) {
  Layers& layers = result->layers;
  const size_t kernel_words =
      std::max<size_t>(sort_n, config.tiny ? 1 << 12 : 1 << 20);
  const std::vector<uint32_t> words = core::MakeKeys(
      core::WorkloadKind::kUniform, kernel_words, config.seed ^ 0xc0dec);
  ProbeMlc(config, kKnob, words, &layers);
  ProbeApprox(config, kKnob, words, result);
  ProbeSort(config, sort_n, result);
  ProbeCore(config, result);
  ProbeExtsort(config, result);
  if (Missing(layers, "refine.approx_stage_s")) {
    TraceReferenceRefine(config, sort_n, result);
  }
  if (Missing(layers, "extsort.sort_s")) TraceReferenceExtsort(config, result);
  if (Missing(layers, "service.run_batch_ms")) {
    TraceReferenceService(config, result);
  }
}

}  // namespace perfbench
