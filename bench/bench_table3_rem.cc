// Table 3: Rem ratio of X after quicksort, LSD, MSD and mergesort in the
// approximate memory at T = 0.03, 0.055, and 0.1.
//
// The 3x4 grid runs concurrently on the --threads pool; output is
// assembled in grid order, so the table and CSV are byte-identical for
// every thread count.
#include <cstdio>

#include "bench/bench_lib.h"
#include "common/table_printer.h"

namespace approxmem {
namespace {

int Main(int argc, char** argv) {
  const bench::BenchEnv env = bench::ParseBenchEnv(argc, argv, 160000);
  bench::PrintRunHeader("Table 3: Rem ratio after approximate sort", env);
  const auto keys =
      core::MakeKeys(core::WorkloadKind::kUniform, env.n, env.seed);

  // Table 3 orders the columns Quicksort, LSD, MSD, Mergesort.
  const std::vector<sort::AlgorithmId> algorithms = {
      {sort::SortKind::kQuicksort, 0},
      {sort::SortKind::kLsdRadix, 6},
      {sort::SortKind::kMsdRadix, 6},
      {sort::SortKind::kMergesort, 0}};
  const std::vector<double> t_grid = {0.03, 0.055, 0.1};

  struct Cell {
    double rem_ratio = 0.0;
    std::string error;
  };
  std::vector<Cell> cells(t_grid.size() * algorithms.size());
  bench::ParallelSweep(
      env, t_grid.size(), algorithms.size(), [&](size_t row, size_t col) {
        core::ApproxSortEngine engine = bench::MakeCellEngine(env, row, col);
        Cell& cell = cells[row * algorithms.size() + col];
        const auto result =
            engine.SortApproxOnly(keys, algorithms[col], t_grid[row]);
        if (!result.ok()) {
          cell.error = result.status().ToString();
          return;
        }
        cell.rem_ratio = result->sortedness.rem_ratio;
      });

  TablePrinter table("Table 3: Rem ratio of X after approximate sort");
  table.SetHeader({"T", "Quicksort", "LSD", "MSD", "Mergesort"});
  for (size_t row = 0; row < t_grid.size(); ++row) {
    std::vector<std::string> table_row = {TablePrinter::Fmt(t_grid[row], 3)};
    for (size_t col = 0; col < algorithms.size(); ++col) {
      const Cell& cell = cells[row * algorithms.size() + col];
      bench::RequireNoCellError(cell.error);
      table_row.push_back(TablePrinter::FmtPercent(cell.rem_ratio, 4));
    }
    table.AddRow(table_row);
  }
  table.Print();
  bench::WriteCsv(env, table, "table3_rem.csv");
  std::printf(
      "\nPaper values (n=16M): T=0.03: ~0.001-0.003%% everywhere; T=0.055: "
      "QS 1.92%%, LSD 1.02%%, MSD 1.00%%, MS 55.8%%; T=0.1: QS 96.9%%, LSD "
      "95.7%%, MSD 83.8%%, MS 99.95%%.\n");
  return 0;
}

}  // namespace
}  // namespace approxmem

int main(int argc, char** argv) { return approxmem::Main(argc, argv); }
