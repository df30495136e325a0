// Micro-benchmarks (google-benchmark) of the simulator's hot paths: cell
// writes (exact vs calibrated fast path), instrumented sorting throughput,
// the striped intra-sort radix at 1/2/4/8 workers, the LIS/Rem computation
// and sharded Monte-Carlo calibration. These measure the *simulator's*
// speed, not the simulated device's. Host-time regressions are gated by
// the CI perf-regression job (perfbench/run.py against the parent commit,
// compared by tools/perf_compare), not by this binary.
#include <benchmark/benchmark.h>

#include <vector>

#include "approx/approx_memory.h"
#include "common/random.h"
#include "common/thread_pool.h"
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

}  // namespace
}  // namespace approxmem

BENCHMARK_MAIN();
