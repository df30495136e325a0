// Figure 13 (Appendix A): total write-energy saving of approx-refine on
// approximate spintronic memory, across the four operating points, for the
// ten algorithm instances. An ordinary SortApproxRefine sweep on the
// spintronic backend: the knob is each operating point's per-bit
// write-error probability.
#include <cstdio>

#include "approx/spintronic.h"
#include "bench/bench_lib.h"
#include "common/table_printer.h"

namespace approxmem {
namespace {

int Main(int argc, char** argv) {
  const bench::BenchEnv env = bench::ParseBenchEnv(
      argc, argv, 100000, approx::kSpintronicBackendName);
  bench::PrintRunHeader(
      "Figure 13: approx-refine write-energy saving on spintronic memory",
      env);
  core::ApproxSortEngine engine = bench::MakeEngine(env);
  const auto keys =
      core::MakeKeys(core::WorkloadKind::kUniform, env.n, env.seed);
  const auto algorithms = bench::PanelAlgorithms();

  TablePrinter table("Figure 13: write-energy saving (Eq. 2, energy units)");
  std::vector<std::string> header = {"saving/err_per_bit"};
  for (const auto& algorithm : algorithms) header.push_back(algorithm.Name());
  table.SetHeader(header);

  double best = -1.0;
  std::string best_label;
  for (const auto& config : approx::PaperSpintronicConfigs()) {
    std::vector<std::string> row = {approx::SpintronicLabel(config)};
    for (const auto& algorithm : algorithms) {
      const auto outcome = bench::RequireVerifiedOutcome(
          engine.SortApproxRefine(keys, algorithm, config.bit_error_prob),
          "fig13");
      row.push_back(TablePrinter::FmtPercent(outcome.write_reduction, 1));
      if (outcome.write_reduction > best) {
        best = outcome.write_reduction;
        best_label =
            algorithm.Name() + " @ " + approx::SpintronicLabel(config);
      }
    }
    table.AddRow(row);
  }
  table.Print();
  bench::WriteCsv(env, table, "fig13_spintronic_wr.csv");
  std::printf(
      "\nBest: %s with %.1f%% energy saving. Paper shape: radix and "
      "quicksort gain at the 20%% and 33%% operating points (radix up to "
      "~13.4%%, quicksort ~7.5%% at n=16M); mergesort never gains; the "
      "1e-4/bit point loses everywhere.\n",
      best_label.c_str(), best * 100.0);
  return 0;
}

}  // namespace
}  // namespace approxmem

int main(int argc, char** argv) { return approxmem::Main(argc, argv); }
