// The paper's evaluation grids in one runner: Fig. 4, Table 3 and Figs.
// 9-15, one kFigures entry each. The driver makes one uniform key set per
// distinct n, runs every (row, algorithm) cell, aborts on a failed or
// unverified cell, and hands the grid to the figure's emit function.
// `bench_figures` runs all nine in one process, sharing its thread pool and
// calibration cache; `--fig=fig9,table3` runs only those, in that order.
// Either way each figure prints and writes exactly what it does alone, and
// the CSVs are byte-identical for every --threads/--sort_threads value.
#include <cstdio>
#include <cstdlib>
#include <map>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "approx/spintronic.h"
#include "bench/bench_lib.h"
#include "common/table_printer.h"

namespace approxmem {
namespace {

using bench::BenchEnv;
using core::WorkloadKind::kUniform;
using sort::SortKind;

constexpr char kUsage[] =
    "usage: bench_figures [--fig=<id>[,<id>...]] [--max_n=<n>] [flags]\n"
    "  --fig: figures to run, in order (default all); --max_n: largest fig10\n"
    "  row (default 1600000); --n --full --seed --backend --threads\n"
    "  --sort_threads --csv_dir --calibration_trials --calibration_cache\n"
    "  --help as in bench/bench_lib.h (n, backend default per figure)\n";

/// The paper's sweet spot, where Figs. 10 and 11 run.
constexpr double kSweetSpotT = 0.055;

/// One grid row: the input size, the knob (T on MLC PCM, the per-bit
/// write-error probability on spintronic memory) and the row label.
struct Row {
  size_t n;
  double knob;
  std::string label;
};

/// Approx-only cells fill the sortedness fields and Eq. 1; approx-refine
/// cells fill Eq. 2 and the per-stage write costs.
struct Cell {
  double error_rate = 0.0;
  double rem_ratio = 0.0;
  double write_reduction = 0.0;
  double approx_cost = 0.0;
  double refine_cost = 0.0;
  std::string error;
};

struct Grid {
  const BenchEnv& env;
  std::vector<Row> rows;
  std::vector<sort::AlgorithmId> algorithms;
  std::vector<Cell> cells;  // Row-major.

  const Cell& at(size_t row, size_t col) const {
    return cells[row * algorithms.size() + col];
  }
};

enum class Mode { kApproxOnly, kApproxRefine };

// kPerCell: ParallelSweep, MakeCellEngine(env, row, col) per cell.
// kShared: one MakeEngine(env) engine, cells in row-major order.
enum class Engines { kPerCell, kShared };

struct Figure {
  const char* id;
  const char* title;
  size_t default_n;
  std::string_view backend;
  std::vector<Row> (*rows)(const BenchEnv& env);
  std::vector<sort::AlgorithmId> (*algorithms)();
  Mode mode;
  Engines engines;  // kShared: goldens pin the one engine's RNG streams.
  void (*emit)(const Grid& grid);  // Prints and writes the tables.
  const char* note;                // Printed verbatim after emit.
};

std::vector<Row> TRows(const BenchEnv& env,
                       const std::vector<double>& t_grid) {
  std::vector<Row> rows;
  for (const double t : t_grid) {
    rows.push_back({env.n, t, TablePrinter::Fmt(t, 3)});
  }
  return rows;
}

/// 1.6K to 1.6M keys at T = 0.055, capped by --max_n; --full adds 16M.
std::vector<Row> SizeRows(const BenchEnv& env) {
  const auto max_n =
      static_cast<size_t>(env.flags.GetInt("max_n", 1600000));
  std::vector<Row> rows;
  for (const size_t n : {size_t{1600}, size_t{16000}, size_t{160000},
                         size_t{1600000}, bench::kPaperN}) {
    if (n == bench::kPaperN ? env.full : n <= max_n) {
      rows.push_back({n, kSweetSpotT,
                      TablePrinter::FmtInt(static_cast<long long>(n))});
    }
  }
  return rows;
}

/// The paper's four spintronic operating points.
std::vector<Row> SpintronicRows(const BenchEnv& env) {
  std::vector<Row> rows;
  for (const auto& config : approx::PaperSpintronicConfigs()) {
    rows.push_back(
        {env.n, config.bit_error_prob, approx::SpintronicLabel(config)});
  }
  return rows;
}

/// Fig. 15: 3- to 6-bit histogram LSD, then 3- to 6-bit histogram MSD.
std::vector<sort::AlgorithmId> HistogramRadixAlgorithms() {
  std::vector<sort::AlgorithmId> algorithms;
  for (const auto kind : {SortKind::kLsdHistogram, SortKind::kMsdHistogram}) {
    for (int bits = 3; bits <= 6; ++bits) algorithms.push_back({kind, bits});
  }
  return algorithms;
}

/// The row-label x algorithm table of one cell field, as a percentage.
TablePrinter GridTable(const Grid& grid, const char* title,
                       const char* corner, double Cell::*field,
                       int precision) {
  TablePrinter table(title);
  std::vector<std::string> header = {corner};
  for (const auto& algorithm : grid.algorithms) {
    header.push_back(algorithm.Name());
  }
  table.SetHeader(header);
  for (size_t row = 0; row < grid.rows.size(); ++row) {
    std::vector<std::string> cells = {grid.rows[row].label};
    for (size_t col = 0; col < grid.algorithms.size(); ++col) {
      cells.push_back(
          TablePrinter::FmtPercent(grid.at(row, col).*field, precision));
    }
    table.AddRow(cells);
  }
  return table;
}

/// Figs. 11 and 14: each algorithm's approx and refine stage write costs,
/// normalized to the first algorithm's (3-bit LSD's) approx stage.
TablePrinter BreakdownTable(const Grid& grid, const char* title) {
  const double unit = grid.at(0, 0).approx_cost;
  TablePrinter table(title);
  table.SetHeader({"algorithm", "approx", "refine", "total", "refine_share"});
  for (size_t col = 0; col < grid.algorithms.size(); ++col) {
    const Cell& cell = grid.at(0, col);
    const double total = cell.approx_cost + cell.refine_cost;
    table.AddRow({grid.algorithms[col].Name(),
                  TablePrinter::Fmt(cell.approx_cost / unit, 3),
                  TablePrinter::Fmt(cell.refine_cost / unit, 3),
                  TablePrinter::Fmt(total / unit, 3),
                  TablePrinter::FmtPercent(cell.refine_cost / total, 1)});
  }
  return table;
}

void Publish(const Grid& grid, const TablePrinter& table, const char* csv) {
  table.Print();
  bench::WriteCsv(grid.env, table, csv);
}

void PublishGrid(const Grid& grid, const char* title, const char* corner,
                 double Cell::*field, int precision, const char* csv) {
  Publish(grid, GridTable(grid, title, corner, field, precision), csv);
}

/// "Best: <algorithm><at><row label> with <WR>% <metric>. " for the first
/// cell, in row-major order, with the highest write reduction.
void PrintBest(const Grid& grid, const char* at, const char* metric) {
  size_t best = 0;
  for (size_t i = 1; i < grid.cells.size(); ++i) {
    if (grid.cells[i].write_reduction > grid.cells[best].write_reduction) {
      best = i;
    }
  }
  const size_t cols = grid.algorithms.size();
  std::printf("\nBest: %s%s%s with %.1f%% %s. ",
              grid.algorithms[best % cols].Name().c_str(), at,
              grid.rows[best / cols].label.c_str(),
              grid.cells[best].write_reduction * 100.0, metric);
}

constexpr std::string_view kPcm = approx::kPcmBackendName;
constexpr std::string_view kSpin = approx::kSpintronicBackendName;
constexpr auto kPaperT = [](const BenchEnv& env) {
  return TRows(env, bench::PaperTGrid());
};

const Figure kFigures[] = {
    {"fig4", "Figure 4: sortedness vs write reduction in approximate memory",
     bench::kDefaultN, kPcm, kPaperT, sort::HeadlineAlgorithms,
     Mode::kApproxOnly, Engines::kPerCell,
     [](const Grid& grid) {
       PublishGrid(grid, "Figure 4(a): error rate vs T", "T",
                   &Cell::error_rate, 2, "fig4a_error_rate.csv");
       PublishGrid(grid, "Figure 4(b): Rem ratio vs T", "T", &Cell::rem_ratio,
                   2, "fig4b_rem_ratio.csv");
       PublishGrid(grid, "Figure 4(c): write reduction vs T (Eq. 1)", "T",
                   &Cell::write_reduction, 1, "fig4c_write_reduction.csv");
     },
     "\nPaper shape: both error rate and Rem ratio grow rapidly past T~0.06 "
     "(mergesort much earlier); write reduction reaches ~33% at T=0.055 and "
     "~50% at T=0.1 while flattening.\n"},
    {"table3", "Table 3: Rem ratio after approximate sort", 160000, kPcm,
     [](const BenchEnv& env) { return TRows(env, {0.03, 0.055, 0.1}); },
     []() -> std::vector<sort::AlgorithmId> {
       return {{SortKind::kQuicksort, 0}, {SortKind::kLsdRadix, 6},
               {SortKind::kMsdRadix, 6}, {SortKind::kMergesort, 0}};
     },
     Mode::kApproxOnly, Engines::kPerCell,
     [](const Grid& grid) {
       TablePrinter table =
           GridTable(grid, "Table 3: Rem ratio of X after approximate sort",
                     "T", &Cell::rem_ratio, 4);
       table.SetHeader({"T", "Quicksort", "LSD", "MSD", "Mergesort"});
       Publish(grid, table, "table3_rem.csv");
     },
     "\nPaper values (n=16M): T=0.03: ~0.001-0.003% everywhere; T=0.055: "
     "QS 1.92%, LSD 1.02%, MSD 1.00%, MS 55.8%; T=0.1: QS 96.9%, LSD 95.7%, "
     "MSD 83.8%, MS 99.95%.\n"},
    {"fig9", "Figure 9: approx-refine write reduction vs T", 100000, kPcm,
     kPaperT, sort::StudyAlgorithms, Mode::kApproxRefine, Engines::kPerCell,
     [](const Grid& grid) {
       PublishGrid(grid, "Figure 9: write reduction vs T (approx-refine)",
                   "T", &Cell::write_reduction, 1, "fig9_wr_vs_t.csv");
       PrintBest(grid, " at T=", "write reduction");
     },
     "Paper shape: all algorithms except mergesort peak at T=0.055 (radix "
     "~10%, quicksort ~4% at n=16M); negative below T~0.03 and above "
     "T~0.07; mergesort never gains.\n"},
    {"fig10", "Figure 10: approx-refine write reduction vs n",
     bench::kDefaultN, kPcm, SizeRows, sort::StudyAlgorithms,
     Mode::kApproxRefine, Engines::kPerCell,
     [](const Grid& grid) {
       PublishGrid(grid, "Figure 10: write reduction vs n (T = 0.055)", "n",
                   &Cell::write_reduction, 1, "fig10_wr_vs_n.csv");
     },
     "\nPaper shape: gains grow with n for quicksort and MSD (3-bit LSD/MSD "
     "reach ~11%/10.3% and quicksort ~4% at 16M); LSD is not monotone in "
     "n.\n"},
    {"fig11", "Figure 11: write latency breakdown (approx vs refine)", 100000,
     kPcm, [](const BenchEnv& env) { return TRows(env, {kSweetSpotT}); },
     sort::StudyAlgorithms, Mode::kApproxRefine, Engines::kShared,
     [](const Grid& grid) {
       Publish(grid,
               BreakdownTable(grid, "Figure 11: normalized write latency "
                                    "(unit = 3-bit LSD approx stage)"),
               "fig11_breakdown.csv");
     },
     "\nPaper shape: more bins shrink the radix totals (6-bit best); 6-bit "
     "MSD and quicksort have the smallest totals; the refine share is "
     "negligible except for mergesort.\n"},
    {"fig12", "Figure 12: Rem ratio on approximate spintronic memory",
     bench::kDefaultN, kSpin, SpintronicRows, sort::HeadlineAlgorithms,
     Mode::kApproxOnly, Engines::kShared,
     [](const Grid& grid) {
       PublishGrid(grid, "Figure 12: Rem ratio vs energy saving per write",
                   "saving/err_per_bit", &Cell::rem_ratio, 2,
                   "fig12_spintronic_rem.csv");
     },
     "\nPaper shape: nearly sorted at the 5%-saving point; mergesort "
     "degrades first; at the 50%-saving point (1e-4/bit) the sequence is "
     "heavily disordered for every algorithm.\n"},
    {"fig13",
     "Figure 13: approx-refine write-energy saving on spintronic memory",
     100000, kSpin, SpintronicRows, sort::StudyAlgorithms,
     Mode::kApproxRefine, Engines::kShared,
     [](const Grid& grid) {
       PublishGrid(grid, "Figure 13: write-energy saving (Eq. 2, energy units)",
                   "saving/err_per_bit", &Cell::write_reduction, 1,
                   "fig13_spintronic_wr.csv");
       PrintBest(grid, " @ ", "energy saving");
     },
     "Paper shape: radix and quicksort gain at the 20% and 33% operating "
     "points (radix up to ~13.4%, quicksort ~7.5% at n=16M); mergesort "
     "never gains; the 1e-4/bit point loses everywhere.\n"},
    {"fig14", "Figure 14: spintronic write-energy breakdown", 100000, kSpin,
     [](const BenchEnv& env) {  // The 33%-saving, 1e-5-per-bit point.
       return std::vector<Row>{SpintronicRows(env)[2]};
     },
     sort::StudyAlgorithms, Mode::kApproxRefine, Engines::kShared,
     [](const Grid& grid) {
       Publish(grid,
               BreakdownTable(grid, "Figure 14: normalized write energy "
                                    "(unit = 3-bit LSD approx stage; "
                                    "33%-saving operating point)"),
               "fig14_spintronic_breakdown.csv");
     },
     "\nPaper shape: refine energy is negligible for everything except "
     "mergesort.\n"},
    {"fig15", "Figure 15: approx-refine write reduction, histogram radix sorts",
     100000, kPcm, kPaperT, HistogramRadixAlgorithms, Mode::kApproxRefine,
     Engines::kShared,
     [](const Grid& grid) {
       PublishGrid(grid, "Figure 15: write reduction vs T (histogram radix)",
                   "T", &Cell::write_reduction, 1,
                   "fig15_histogram_radix.csv");
     },
     "\nPaper shape: peaks at T=0.055-0.06; ~10% for 3-bit and ~5% for "
     "6-bit — slightly below the queue-bucket implementations because "
     "histogram partitioning already halves the writes, so the fixed "
     "prep/refine overheads weigh more.\n"},
};

/// One cell; a failure or an unverified refine output is recorded in
/// Cell::error, because sweep workers must not exit the process.
Cell RunCell(core::ApproxSortEngine& engine, Mode mode,
             const std::vector<uint32_t>& keys, double knob,
             const sort::AlgorithmId& algorithm) {
  Cell cell;
  if (mode == Mode::kApproxOnly) {
    const auto result = engine.SortApproxOnly(keys, algorithm, knob);
    if (!result.ok()) return {.error = result.status().ToString()};
    cell.error_rate = result->sortedness.error_rate;
    cell.rem_ratio = result->sortedness.rem_ratio;
    cell.write_reduction = result->write_reduction;
    return cell;
  }
  const auto outcome = engine.SortApproxRefine(keys, algorithm, knob);
  if (!outcome.ok()) return {.error = outcome.status().ToString()};
  if (!outcome->refine.verified()) {
    return {.error = "UNVERIFIED refine output — " +
                     outcome->refine.verification.ToString()};
  }
  cell.write_reduction = outcome->write_reduction;
  cell.approx_cost = outcome->refine.ApproxStageWriteCost();
  cell.refine_cost = outcome->refine.RefineStageWriteCost();
  return cell;
}

void RunFigure(const Figure& figure, const Flags& flags) {
  const BenchEnv env =
      bench::ResolveBenchEnv(flags, figure.default_n, figure.backend);
  bench::PrintRunHeader(figure.title, env);
  Grid grid{env, figure.rows(env), figure.algorithms(), {}};
  const size_t rows = grid.rows.size();
  const size_t cols = grid.algorithms.size();
  std::map<size_t, std::vector<uint32_t>> keys;  // One key set per n.
  for (const Row& row : grid.rows) {
    std::vector<uint32_t>& input = keys[row.n];
    if (input.size() != row.n) {
      input = core::MakeKeys(kUniform, row.n, env.seed);
    }
  }
  grid.cells.resize(rows * cols);
  const auto run = [&](core::ApproxSortEngine& engine, size_t cell) {
    const Row& row = grid.rows[cell / cols];
    grid.cells[cell] = RunCell(engine, figure.mode, keys.at(row.n), row.knob,
                               grid.algorithms[cell % cols]);
  };
  if (figure.engines == Engines::kPerCell) {
    bench::ParallelSweep(env, rows, cols, [&](size_t row, size_t col) {
      core::ApproxSortEngine engine = bench::MakeCellEngine(env, row, col);
      run(engine, row * cols + col);
    });
  } else {
    core::ApproxSortEngine engine = bench::MakeEngine(env);
    for (size_t cell = 0; cell < rows * cols; ++cell) run(engine, cell);
  }
  for (const Cell& cell : grid.cells) {
    if (cell.error.empty()) continue;
    std::fprintf(stderr, "%s: %s\n", figure.id, cell.error.c_str());
    std::exit(1);
  }
  figure.emit(grid);
  std::fputs(figure.note, stdout);
}

/// The figure named `id`; exits 2 listing the valid ids when there is none.
const Figure& FindFigure(const std::string& id) {
  for (const Figure& figure : kFigures) {
    if (id == figure.id) return figure;
  }
  std::fprintf(stderr, "unknown --fig id '%s'; valid ids:", id.c_str());
  for (const Figure& figure : kFigures) std::fprintf(stderr, " %s", figure.id);
  std::fprintf(stderr, "\n");
  std::exit(2);
}

int Main(int argc, char** argv) {
  const Flags flags = bench::ParseBenchFlags(argc, argv, kUsage);
  if (flags.Has("help")) {
    std::fputs(kUsage, stdout);
    return 0;
  }
  std::vector<const Figure*> figures;
  if (!flags.Has("fig")) {
    for (const Figure& figure : kFigures) figures.push_back(&figure);
  }
  std::istringstream ids(flags.GetString("fig", ""));
  for (std::string id; std::getline(ids, id, ',');) {
    figures.push_back(&FindFigure(id));
  }
  if (figures.empty()) FindFigure("");  // --fig= names nothing.
  for (size_t i = 0; i < figures.size(); ++i) {
    if (i > 0) std::printf("\n");
    RunFigure(*figures[i], flags);
  }
  return 0;
}

}  // namespace
}  // namespace approxmem

int main(int argc, char** argv) { return approxmem::Main(argc, argv); }
