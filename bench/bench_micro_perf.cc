// Micro-benchmarks (google-benchmark) of the simulator's hot paths: cell
// writes (exact vs calibrated fast path), instrumented sorting throughput,
// and the LIS/Rem computation. These measure the *simulator's* speed, not
// the simulated device's.
//
// After the google-benchmark suite, the binary times serial vs parallel
// Monte-Carlo calibration and a serial vs parallel (T x algorithm) sweep
// and writes bench_artifacts/parallel_speedup.json, so the speedup
// trajectory of the parallel runner can be tracked across PRs. It also
// times the striped intra-sort radix hot path at 1/2/4/8 workers plus the
// batched-vs-scalar write kernels and writes
// bench_artifacts/perf_snapshot.json — the snapshot committed at the repo
// root as BENCH_10.json and diffed by tools/bench_compare in CI.
#include <benchmark/benchmark.h>
#include <sys/stat.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <memory>
#include <vector>

#include "approx/approx_memory.h"
#include "common/random.h"
#include "common/thread_pool.h"
#include "core/engine.h"
#include "core/workload.h"
#include "mlc/calibration.h"
#include "mlc/cell.h"
#include "sort/sort_common.h"
#include "sortedness/lis.h"

namespace approxmem {
namespace {

void BM_ExactCellWrite(benchmark::State& state) {
  const mlc::MlcConfig config =
      mlc::MlcConfig().WithT(static_cast<double>(state.range(0)) / 1000.0);
  Rng rng(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        mlc::WriteCell(static_cast<int>(rng.UniformInt(4)), config, rng));
  }
}
BENCHMARK(BM_ExactCellWrite)->Arg(25)->Arg(55)->Arg(100);

void BM_FastWordWrite(benchmark::State& state) {
  approx::ApproxMemory::Options options;
  options.calibration_trials = 50000;
  approx::ApproxMemory memory(options);
  approx::ApproxArrayU32 array = memory.NewApproxArray(1, 0.055);
  Rng rng(2);
  for (auto _ : state) {
    array.Set(0, rng.NextU32());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_FastWordWrite);

void BM_InstrumentedQuicksort(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  approx::ApproxMemory::Options options;
  options.calibration_trials = 50000;
  approx::ApproxMemory memory(options);
  const auto keys = core::MakeKeys(core::WorkloadKind::kUniform, n, 3);
  for (auto _ : state) {
    approx::ApproxArrayU32 array = memory.NewApproxArray(n, 0.055);
    array.Store(keys);
    sort::SortSpec spec;
    spec.keys = &array;
    Rng rng(4);
    benchmark::DoNotOptimize(
        sort::RunSort(spec, {sort::SortKind::kQuicksort, 0}, rng));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(n));
}
BENCHMARK(BM_InstrumentedQuicksort)->Arg(1 << 12)->Arg(1 << 16);

void BM_StripedLsdRadix(benchmark::State& state) {
  // Intra-sort scaling of the striped LSD hot path; Arg is the worker
  // count (1 = serial). Output is identical at every setting, so the curve
  // is pure wall-clock.
  const int threads = static_cast<int>(state.range(0));
  const size_t n = 1 << 18;
  ThreadPool pool(threads);
  approx::ApproxMemory::Options options;
  options.calibration_trials = 50000;
  approx::ApproxMemory memory(options);
  const auto keys = core::MakeKeys(core::WorkloadKind::kUniform, n, 9);
  for (auto _ : state) {
    approx::ApproxArrayU32 array = memory.NewApproxArray(n, 0.055);
    array.Store(keys);
    sort::SortSpec spec;
    spec.keys = &array;
    spec.alloc_key_buffer = [&](size_t words) {
      return memory.NewApproxArray(words, 0.055);
    };
    spec.tuning.pool = threads > 1 ? &pool : nullptr;
    Rng rng(4);
    benchmark::DoNotOptimize(
        sort::RunSort(spec, {sort::SortKind::kLsdRadix, 6}, rng));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(n));
}
BENCHMARK(BM_StripedLsdRadix)->Arg(1)->Arg(2)->Arg(4)->Arg(8);

void BM_LisRem(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  Rng rng(5);
  const std::vector<uint32_t> values = UniformKeys(n, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(sortedness::Rem(values));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(n));
}
BENCHMARK(BM_LisRem)->Arg(1 << 14)->Arg(1 << 18);

void BM_CalibrationSharded(benchmark::State& state) {
  // threads = 1 is the serial baseline; higher args show pool scaling.
  ThreadPool pool(static_cast<int>(state.range(0)));
  const mlc::MlcConfig config = mlc::MlcConfig().WithT(0.055);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        mlc::CellCalibration::Run(config, 50000, /*seed=*/6, &pool));
  }
}
BENCHMARK(BM_CalibrationSharded)->Arg(1)->Arg(0 /* hardware */);

// --- parallel_speedup.json -------------------------------------------------

double SecondsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

// Full T-grid calibration through a fresh shared cache, as a figure sweep
// would trigger it on a cold start.
double TimeCalibration(int threads) {
  ThreadPool pool(threads);
  mlc::CalibrationCache cache(mlc::MlcConfig(), 100000, /*seed=*/42, &pool);
  const auto start = std::chrono::steady_clock::now();
  for (int i = 0; i < 4; ++i) {
    const double t = 0.025 + 0.025 * i;
    // Each T's Monte-Carlo shards fan out over the pool.
    benchmark::DoNotOptimize(cache.PvRatio(t));
  }
  return SecondsSince(start);
}

// A bench_fig9-style (T x algorithm) sweep: per-cell engines, one shared
// calibration cache, cells scheduled on the pool.
double TimeSweep(int threads) {
  ThreadPool pool(threads);
  auto cache = std::make_shared<mlc::CalibrationCache>(
      mlc::MlcConfig(), 20000, /*seed=*/42 ^ 0xca11b7a7e5eedULL, &pool);
  const auto keys = core::MakeKeys(core::WorkloadKind::kUniform, 20000, 42);
  const std::vector<double> ts = {0.045, 0.055, 0.065, 0.075};
  const auto algorithms = sort::HeadlineAlgorithms();
  const auto start = std::chrono::steady_clock::now();
  pool.ParallelFor(0, ts.size() * algorithms.size(), [&](size_t cell) {
    const size_t row = cell / algorithms.size();
    const size_t col = cell % algorithms.size();
    core::EngineOptions options;
    options.seed = 42 ^ (cell + 1);
    options.calibration_trials = 20000;
    options.shared_calibration = cache;
    core::ApproxSortEngine engine(options);
    benchmark::DoNotOptimize(
        engine.SortApproxRefine(keys, algorithms[col], ts[row]));
  });
  return SecondsSince(start);
}

void WriteParallelSpeedupArtifact() {
  const int hardware = ThreadPool::HardwareThreads();
  const double calibration_serial = TimeCalibration(1);
  const double calibration_parallel = TimeCalibration(hardware);
  const double sweep_serial = TimeSweep(1);
  const double sweep_parallel = TimeSweep(hardware);

  ::mkdir("bench_artifacts", 0755);
  std::FILE* f = std::fopen("bench_artifacts/parallel_speedup.json", "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write bench_artifacts/parallel_speedup.json\n");
    return;
  }
  std::fprintf(f,
               "{\n"
               "  \"threads\": %d,\n"
               "  \"calibration\": {\"serial_seconds\": %.6f, "
               "\"parallel_seconds\": %.6f, \"speedup\": %.3f},\n"
               "  \"sweep\": {\"serial_seconds\": %.6f, "
               "\"parallel_seconds\": %.6f, \"speedup\": %.3f}\n"
               "}\n",
               hardware, calibration_serial, calibration_parallel,
               calibration_serial / calibration_parallel, sweep_serial,
               sweep_parallel, sweep_serial / sweep_parallel);
  std::fclose(f);
  std::printf(
      "parallel_speedup (threads=%d): calibration %.2fx, sweep %.2fx "
      "-> bench_artifacts/parallel_speedup.json\n",
      hardware, calibration_serial / calibration_parallel,
      sweep_serial / sweep_parallel);
}

// --- perf_snapshot.json ----------------------------------------------------

// One instrumented 6-bit striped LSD sort; median of three runs.
double TimeStripedSort(int threads, size_t n) {
  ThreadPool pool(threads);
  approx::ApproxMemory::Options options;
  options.calibration_trials = 50000;
  approx::ApproxMemory memory(options);
  const auto keys = core::MakeKeys(core::WorkloadKind::kUniform, n, 9);
  std::vector<double> samples;
  for (int run = 0; run < 3; ++run) {
    approx::ApproxArrayU32 array = memory.NewApproxArray(n, 0.055);
    array.Store(keys);
    sort::SortSpec spec;
    spec.keys = &array;
    spec.alloc_key_buffer = [&](size_t words) {
      return memory.NewApproxArray(words, 0.055);
    };
    spec.tuning.pool = threads > 1 ? &pool : nullptr;
    Rng rng(4);
    const auto start = std::chrono::steady_clock::now();
    benchmark::DoNotOptimize(
        sort::RunSort(spec, {sort::SortKind::kLsdRadix, 6}, rng));
    samples.push_back(SecondsSince(start));
  }
  std::sort(samples.begin(), samples.end());
  return samples[1];
}

// Throughput of n approximate word writes: the scalar per-word Set path
// vs. the SetRange span that runs the batched codec/sampler kernels.
double TimeApproxWrites(bool batched, size_t n) {
  approx::ApproxMemory::Options options;
  options.calibration_trials = 50000;
  approx::ApproxMemory memory(options);
  const auto keys = core::MakeKeys(core::WorkloadKind::kUniform, n, 11);
  std::vector<double> samples;
  for (int run = 0; run < 3; ++run) {
    approx::ApproxArrayU32 array = memory.NewApproxArray(n, 0.055);
    const auto start = std::chrono::steady_clock::now();
    if (batched) {
      array.SetRange(0, keys.data(), n);
    } else {
      for (size_t i = 0; i < n; ++i) array.Set(i, keys[i]);
    }
    samples.push_back(SecondsSince(start));
  }
  std::sort(samples.begin(), samples.end());
  return samples[1];
}

void WritePerfSnapshotArtifact() {
  constexpr size_t kSortN = 1 << 20;
  constexpr size_t kWriteN = 1 << 22;
  const double serial = TimeStripedSort(1, kSortN);
  const double two = TimeStripedSort(2, kSortN);
  const double four = TimeStripedSort(4, kSortN);
  const double eight = TimeStripedSort(8, kSortN);
  const double scalar_writes = TimeApproxWrites(/*batched=*/false, kWriteN);
  const double batched_writes = TimeApproxWrites(/*batched=*/true, kWriteN);

  ::mkdir("bench_artifacts", 0755);
  std::FILE* f = std::fopen("bench_artifacts/perf_snapshot.json", "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write bench_artifacts/perf_snapshot.json\n");
    return;
  }
  std::fprintf(
      f,
      "{\n"
      "  \"snapshot\": \"striped radix + batched kernels\",\n"
      "  \"hardware_threads\": %d,\n"
      "  \"sort\": {\n"
      "    \"algorithm\": \"6-bit LSD\",\n"
      "    \"n\": %zu,\n"
      "    \"serial_seconds\": %.6f,\n"
      "    \"speedup\": {\"2\": %.3f, \"4\": %.3f, \"8\": %.3f}\n"
      "  },\n"
      "  \"kernels\": {\n"
      "    \"n\": %zu,\n"
      "    \"scalar_set_mwords_per_sec\": %.2f,\n"
      "    \"batched_set_range_mwords_per_sec\": %.2f,\n"
      "    \"batched_over_scalar\": %.3f\n"
      "  }\n"
      "}\n",
      ThreadPool::HardwareThreads(), kSortN, serial, serial / two,
      serial / four, serial / eight, kWriteN,
      static_cast<double>(kWriteN) / scalar_writes / 1e6,
      static_cast<double>(kWriteN) / batched_writes / 1e6,
      scalar_writes / batched_writes);
  std::fclose(f);
  std::printf(
      "perf_snapshot: sort speedup 2t %.2fx, 4t %.2fx, 8t %.2fx; batched "
      "writes %.2fx scalar -> bench_artifacts/perf_snapshot.json\n",
      serial / two, serial / four, serial / eight,
      scalar_writes / batched_writes);
}

}  // namespace
}  // namespace approxmem

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  approxmem::WriteParallelSpeedupArtifact();
  approxmem::WritePerfSnapshotArtifact();
  return 0;
}
