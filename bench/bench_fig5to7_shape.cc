// Figures 5-7: the shape of sequence X after sorting 160,000 random
// integers in approximate memory at T = 0.03, 0.055, and 0.1. Each run is
// summarized as a 64-character sparkline (index buckets left to right,
// digit = mean value height 0-9; a monotone ramp 0..9 is a sorted array)
// plus displacement statistics, and exported as a CSV scatter.
#include <cstdio>

#include "bench/bench_lib.h"
#include "common/table_printer.h"
#include "sortedness/shape.h"

namespace approxmem {
namespace {

int Main(int argc, char** argv) {
  const bench::BenchEnv env = bench::ParseBenchEnv(argc, argv, 160000);
  bench::PrintRunHeader("Figures 5-7: sequence shape after approximate sort",
                        env);
  core::ApproxSortEngine engine = bench::MakeEngine(env);
  const auto keys =
      core::MakeKeys(core::WorkloadKind::kUniform, env.n, env.seed);

  for (const double t : {0.03, 0.055, 0.1}) {
    std::printf("\n== T = %.3f ==\n", t);
    for (const auto& algorithm : sort::HeadlineAlgorithms()) {
      std::vector<uint32_t> output;
      const auto result = bench::RequireOk(
          engine.SortApproxOnly(keys, algorithm, t, &output), "fig5to7");
      const sortedness::ShapeSummary shape =
          sortedness::SummarizeShape(output);
      std::printf("%-12s |%s| Rem=%6.2f%% displaced=%6.2f%% devP50=%.3f\n",
                  algorithm.Name().c_str(),
                  sortedness::ShapeSparkline(output).c_str(),
                  result.sortedness.rem_ratio * 100.0,
                  shape.displaced_fraction * 100.0, shape.deviation_p50);
      char file[64];
      std::snprintf(file, sizeof(file), "shape_T%03d_%s.csv",
                    static_cast<int>(t * 1000), algorithm.Name().c_str());
      const std::string path = bench::CsvPath(env, file);
      bench::Require(sortedness::WriteShapeCsv(output, path),
                     "cannot write " + path);
    }
  }
  std::printf(
      "\nCSV scatters written to %s/. Paper shape: at T=0.03 all four are "
      "clean ramps; at T=0.055 quicksort/LSD/MSD are ramps with sparse "
      "noise while mergesort shows block disorder; at T=0.1 all are "
      "chaotic.\n",
      env.csv_dir.c_str());
  return 0;
}

}  // namespace
}  // namespace approxmem

int main(int argc, char** argv) { return approxmem::Main(argc, argv); }
