// Refine-stage ablations validating the paper's two design arguments:
//
//   (1) Section 4.2: the Listing 1 heuristic vs an exact patience LIS.
//       The exact LIS finds the true minimum REM but pays ~2n intermediate
//       precise writes; the heuristic over-approximates REM slightly at
//       ~zero intermediate cost. The write reduction should favor the
//       heuristic.
//   (2) Section 5's discussion: PCM writes are cheaper sequentially than
//       randomly. The approx stage is write-random while the refine stage
//       is write-sequential, so a sequential-write discount should *raise*
//       the approx-refine gain.
#include <cstdio>

#include "bench/bench_lib.h"
#include "common/table_printer.h"
#include "refine/approx_refine.h"

namespace approxmem {
namespace {

void LisModeAblation(const bench::BenchEnv& env) {
  core::ApproxSortEngine engine = bench::MakeEngine(env);
  const auto keys =
      core::MakeKeys(core::WorkloadKind::kUniform, env.n, env.seed);

  TablePrinter table(
      "Ablation: Listing 1 heuristic vs exact LIS in the refine stage");
  table.SetHeader({"algorithm", "T", "REM_heuristic", "REM_exact",
                   "WR_heuristic", "WR_exact"});
  for (const auto& algorithm :
       {sort::AlgorithmId{sort::SortKind::kQuicksort, 0},
        sort::AlgorithmId{sort::SortKind::kLsdRadix, 3}}) {
    for (const double t : {0.045, 0.055, 0.065}) {
      // The engine's own options with only the LIS mode swapped; the
      // baseline uses the same sort seed, so quicksort's pivots match.
      auto run = [&](refine::LisMode mode, size_t* rem) {
        refine::RefineOptions options =
            engine.RefineOptionsFor(algorithm, t, engine.SortSeed());
        options.lis_mode = mode;
        const refine::RefineReport report = bench::RequireOk(
            refine::ApproxRefineSort(keys, options, nullptr, nullptr),
            "LIS ablation");
        bench::RequireVerified(report, "LIS ablation");
        *rem = report.rem_estimate;
        const refine::PreciseBaselineReport baseline = bench::RequireOk(
            engine.PreciseBaseline(keys, algorithm, options.sort_seed, true),
            "LIS ablation baseline");
        return refine::WriteReduction(report, baseline);
      };
      size_t rem_heuristic = 0;
      size_t rem_exact = 0;
      const double wr_heuristic =
          run(refine::LisMode::kHeuristic, &rem_heuristic);
      const double wr_exact = run(refine::LisMode::kExact, &rem_exact);
      table.AddRow({algorithm.Name(), TablePrinter::Fmt(t, 3),
                    TablePrinter::FmtInt(static_cast<long long>(
                        rem_heuristic)),
                    TablePrinter::FmtInt(static_cast<long long>(rem_exact)),
                    TablePrinter::FmtPercent(wr_heuristic, 2),
                    TablePrinter::FmtPercent(wr_exact, 2)});
    }
  }
  table.Print();
  std::printf(
      "\nThe exact LIS leaves less to re-sort (REM_exact <= REM_heuristic) "
      "but its ~2n intermediate writes cost more than the smaller REM "
      "saves — Section 4.2's argument for the heuristic.\n");
}

void SequentialDiscountAblation(const bench::BenchEnv& env) {
  const auto keys =
      core::MakeKeys(core::WorkloadKind::kUniform, env.n, env.seed);
  TablePrinter table(
      "Extension: sequential-write discount raises the approx-refine gain "
      "(T = 0.055)");
  table.SetHeader({"seq_discount", "3-bit LSD", "3-bit MSD", "Quicksort",
                   "Mergesort"});
  for (const double discount : {1.0, 0.7, 0.5}) {
    core::EngineOptions options = bench::MakeEngineOptions(env);
    options.sequential_write_discount = discount;
    core::ApproxSortEngine engine(options);
    std::vector<std::string> row = {TablePrinter::Fmt(discount, 2)};
    for (const auto& algorithm :
         {sort::AlgorithmId{sort::SortKind::kLsdRadix, 3},
          sort::AlgorithmId{sort::SortKind::kMsdRadix, 3},
          sort::AlgorithmId{sort::SortKind::kQuicksort, 0},
          sort::AlgorithmId{sort::SortKind::kMergesort, 0}}) {
      const auto outcome = bench::RequireVerifiedOutcome(
          engine.SortApproxRefine(keys, algorithm, 0.055),
          "sequential-discount ablation");
      row.push_back(TablePrinter::FmtPercent(outcome.write_reduction, 2));
    }
    table.AddRow(row);
  }
  table.Print();
  std::printf(
      "\nWith cheaper sequential writes the refine stage (sequential "
      "output writes) gets relatively cheaper, so the net gain grows — the "
      "outcome the paper's Section 5 discussion predicts.\n");
}

int Main(int argc, char** argv) {
  const bench::BenchEnv env = bench::ParseBenchEnv(argc, argv, 100000);
  bench::PrintRunHeader("Refine-stage ablations", env);
  LisModeAblation(env);
  SequentialDiscountAblation(env);
  return 0;
}

}  // namespace
}  // namespace approxmem

int main(int argc, char** argv) { return approxmem::Main(argc, argv); }
