// Ablations beyond the paper's figures, covering the design choices
// DESIGN.md calls out:
//   (a) cell density — SLC (2-level) vs the paper's 2-bit MLC vs 4-bit MLC,
//       sweeping the guard-band fraction instead of absolute T so the
//       densities are comparable;
//   (b) input distribution — does the approx-refine gain survive skewed,
//       nearly-sorted, and reversed inputs?
#include <cstdio>

#include "bench/bench_lib.h"
#include "common/table_printer.h"
#include "mlc/calibration.h"

namespace approxmem {
namespace {

void CellDensityAblation(const bench::BenchEnv& env) {
  TablePrinter table(
      "Ablation (a): cell density vs error/latency trade-off");
  table.SetHeader({"levels", "guard_fraction", "T", "avg_#P", "p(t)",
                   "word_error"});
  for (const int levels : {2, 4, 16}) {
    mlc::MlcConfig config;
    config.levels = levels;
    const double max_t = mlc::MaxTWidth(levels);
    // The precise reference keeps the same share of the half-band as the
    // paper's 2-bit cell: T = 0.025 / 0.125 = 20% of the half-band.
    config.precise_t_width = 0.2 * max_t;
    config.t_width = config.precise_t_width;
    mlc::CalibrationCache cache(config, 100000, env.seed);
    for (const double guard_fraction : {0.2, 0.44, 0.8, 0.99}) {
      const double t = guard_fraction * max_t;
      const mlc::CellCalibration& calib = cache.ForT(t);
      table.AddRow({TablePrinter::FmtInt(levels),
                    TablePrinter::Fmt(guard_fraction, 2),
                    TablePrinter::Fmt(t, 4),
                    TablePrinter::Fmt(calib.AvgPv(), 3),
                    TablePrinter::Fmt(cache.PvRatio(t), 3),
                    TablePrinter::FmtPercent(
                        calib.WordErrorRate(32 / config.BitsPerCell()), 3)});
    }
  }
  table.Print();
  std::printf(
      "\nDenser cells buy capacity but pay much steeper error rates at the "
      "same relative guard band — the reason the paper (and industry) "
      "settles on 2-bit MLC.\n");
}

void WorkloadAblation(const bench::BenchEnv& env,
                      core::ApproxSortEngine& engine) {
  TablePrinter table(
      "Ablation (b): approx-refine write reduction by input distribution "
      "(T = 0.055)");
  const std::vector<sort::AlgorithmId> algorithms = {
      {sort::SortKind::kLsdRadix, 3},
      {sort::SortKind::kQuicksort, 0},
      {sort::SortKind::kMergesort, 0}};
  std::vector<std::string> header = {"workload"};
  for (const auto& algorithm : algorithms) header.push_back(algorithm.Name());
  table.SetHeader(header);
  for (const auto workload :
       {core::WorkloadKind::kUniform, core::WorkloadKind::kSkewed,
        core::WorkloadKind::kNearlySorted, core::WorkloadKind::kReversed}) {
    const auto keys = core::MakeKeys(workload, env.n, env.seed);
    std::vector<std::string> row = {core::WorkloadName(workload)};
    for (const auto& algorithm : algorithms) {
      const auto outcome = bench::RequireVerifiedOutcome(
          engine.SortApproxRefine(keys, algorithm, 0.055),
          "ablation (b)");
      row.push_back(TablePrinter::FmtPercent(outcome.write_reduction, 1));
    }
    table.AddRow(row);
  }
  table.Print();
  std::printf(
      "\nThe gain is workload-robust for radix sort (its write count is "
      "data-independent); quicksort's gain tracks its write count, which "
      "shrinks on presorted inputs.\n");
}

int Main(int argc, char** argv) {
  const bench::BenchEnv env = bench::ParseBenchEnv(argc, argv, 100000);
  bench::PrintRunHeader("Ablations: cell density and input distribution",
                        env);
  CellDensityAblation(env);
  core::ApproxSortEngine engine = bench::MakeEngine(env);
  WorkloadAblation(env, engine);
  return 0;
}

}  // namespace
}  // namespace approxmem

int main(int argc, char** argv) { return approxmem::Main(argc, argv); }
