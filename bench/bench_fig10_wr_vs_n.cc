// Figure 10: write reduction of approx-refine vs input size n at the sweet
// spot T = 0.055, for the ten algorithm instances. The paper sweeps 1.6K to
// 16M; the default run stops at 1.6M (use --full for the 16M point).
//
// The (n x algorithm) grid runs concurrently; each cell has its own engine
// and all cells share one calibration of T = 0.055, so the table and CSV
// are byte-identical for every --threads value.
#include <cstdio>

#include "bench/bench_lib.h"
#include "common/table_printer.h"

namespace approxmem {
namespace {

int Main(int argc, char** argv) {
  const bench::BenchEnv env = bench::ParseBenchEnv(argc, argv);
  bench::PrintRunHeader("Figure 10: approx-refine write reduction vs n", env);
  const double t = env.flags.GetDouble("t", 0.055);
  const auto algorithms = bench::PanelAlgorithms();

  // --max_n caps the size sweep (the golden-parity test runs a small,
  // fast prefix of the paper's grid); the default keeps every row.
  const size_t max_n = static_cast<size_t>(
      env.flags.GetInt("max_n", 1600000));
  std::vector<size_t> sizes;
  for (const size_t n : {size_t{1600}, size_t{16000}, size_t{160000},
                         size_t{1600000}}) {
    if (n <= max_n) sizes.push_back(n);
  }
  if (env.full) sizes.push_back(bench::kPaperN);

  // One key set per row, generated up front so every cell of a row sorts
  // the exact same input regardless of sweep schedule.
  std::vector<std::vector<uint32_t>> keys_by_row;
  keys_by_row.reserve(sizes.size());
  for (const size_t n : sizes) {
    keys_by_row.push_back(
        core::MakeKeys(core::WorkloadKind::kUniform, n, env.seed));
  }

  struct Cell {
    double write_reduction = 0.0;
    std::string error;
  };
  std::vector<Cell> cells(sizes.size() * algorithms.size());
  bench::ParallelSweep(
      env, sizes.size(), algorithms.size(), [&](size_t row, size_t col) {
        core::ApproxSortEngine engine = bench::MakeCellEngine(env, row, col);
        Cell& cell = cells[row * algorithms.size() + col];
        const auto outcome =
            engine.SortApproxRefine(keys_by_row[row], algorithms[col], t);
        cell.error = bench::RefineCellError(outcome);
        if (cell.error.empty()) cell.write_reduction = outcome->write_reduction;
      });

  TablePrinter table("Figure 10: write reduction vs n (T = 0.055)");
  std::vector<std::string> header = {"n"};
  for (const auto& algorithm : algorithms) header.push_back(algorithm.Name());
  table.SetHeader(header);

  for (size_t row = 0; row < sizes.size(); ++row) {
    std::vector<std::string> table_row = {
        TablePrinter::FmtInt(static_cast<long long>(sizes[row]))};
    for (size_t col = 0; col < algorithms.size(); ++col) {
      const Cell& cell = cells[row * algorithms.size() + col];
      bench::RequireNoCellError(cell.error);
      table_row.push_back(TablePrinter::FmtPercent(cell.write_reduction, 1));
    }
    table.AddRow(table_row);
  }
  table.Print();
  bench::WriteCsv(env, table, "fig10_wr_vs_n.csv");
  std::printf(
      "\nPaper shape: gains grow with n for quicksort and MSD (3-bit LSD/"
      "MSD reach ~11%%/10.3%% and quicksort ~4%% at 16M); LSD is not "
      "monotone in n.\n");
  return 0;
}

}  // namespace
}  // namespace approxmem

int main(int argc, char** argv) { return approxmem::Main(argc, argv); }
