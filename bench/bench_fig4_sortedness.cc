// Figure 4: sorting 16M random integers in approximate memory only.
// (a) error rate vs T, (b) Rem ratio vs T, (c) write reduction vs T
// (Equation 1), for 6-bit LSD, 6-bit MSD, quicksort, and mergesort.
//
// Cells of the (T x algorithm) grid run concurrently (see bench_lib.h);
// rows are assembled in grid order, so tables and CSVs are byte-identical
// for every --threads value.
#include <cstdio>

#include "bench/bench_lib.h"
#include "common/table_printer.h"

namespace approxmem {
namespace {

int Main(int argc, char** argv) {
  const bench::BenchEnv env = bench::ParseBenchEnv(argc, argv);
  bench::PrintRunHeader(
      "Figure 4: sortedness vs write reduction in approximate memory", env);
  const auto keys =
      core::MakeKeys(core::WorkloadKind::kUniform, env.n, env.seed);
  const auto t_grid = bench::PaperTGrid();
  const auto algorithms = sort::HeadlineAlgorithms();

  struct Cell {
    double error_rate = 0.0;
    double rem_ratio = 0.0;
    double write_reduction = 0.0;
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
        cell.error_rate = result->sortedness.error_rate;
        cell.rem_ratio = result->sortedness.rem_ratio;
        cell.write_reduction = result->write_reduction;
      });

  TablePrinter error_table("Figure 4(a): error rate vs T");
  TablePrinter rem_table("Figure 4(b): Rem ratio vs T");
  TablePrinter wr_table("Figure 4(c): write reduction vs T (Eq. 1)");
  std::vector<std::string> header = {"T"};
  for (const auto& algorithm : algorithms) header.push_back(algorithm.Name());
  error_table.SetHeader(header);
  rem_table.SetHeader(header);
  wr_table.SetHeader(header);

  for (size_t row = 0; row < t_grid.size(); ++row) {
    std::vector<std::string> error_row = {TablePrinter::Fmt(t_grid[row], 3)};
    std::vector<std::string> rem_row = error_row;
    std::vector<std::string> wr_row = error_row;
    for (size_t col = 0; col < algorithms.size(); ++col) {
      const Cell& cell = cells[row * algorithms.size() + col];
      bench::RequireNoCellError(cell.error);
      error_row.push_back(TablePrinter::FmtPercent(cell.error_rate, 2));
      rem_row.push_back(TablePrinter::FmtPercent(cell.rem_ratio, 2));
      wr_row.push_back(TablePrinter::FmtPercent(cell.write_reduction, 1));
    }
    error_table.AddRow(error_row);
    rem_table.AddRow(rem_row);
    wr_table.AddRow(wr_row);
  }
  error_table.Print();
  rem_table.Print();
  wr_table.Print();
  bench::WriteCsv(env, error_table, "fig4a_error_rate.csv");
  bench::WriteCsv(env, rem_table, "fig4b_rem_ratio.csv");
  bench::WriteCsv(env, wr_table, "fig4c_write_reduction.csv");
  std::printf(
      "\nPaper shape: both error rate and Rem ratio grow rapidly past "
      "T~0.06 (mergesort much earlier); write reduction reaches ~33%% at "
      "T=0.055 and ~50%% at T=0.1 while flattening.\n");
  return 0;
}

}  // namespace
}  // namespace approxmem

int main(int argc, char** argv) { return approxmem::Main(argc, argv); }
