// Database-operator extension (the paper's future-work direction): how the
// approx-refine sorting gain propagates into sort-based GROUP BY and
// sort-merge join, end to end and exactly.
#include <cstdio>

#include "bench/bench_lib.h"
#include "common/table_printer.h"
#include "dbops/aggregate.h"
#include "dbops/join.h"

namespace approxmem {
namespace {

int Main(int argc, char** argv) {
  const bench::BenchEnv env = bench::ParseBenchEnv(argc, argv, 200000);
  bench::PrintRunHeader(
      "Extension: GROUP BY and sort-merge join over approx-refine", env);
  core::ApproxSortEngine engine = bench::MakeEngine(env);

  TablePrinter group_table("GROUP BY: sort write reduction by algorithm");
  group_table.SetHeader({"algorithm", "groups", "sort_write_reduction"});
  const auto group_keys =
      core::MakeKeys(core::WorkloadKind::kSkewed, env.n, env.seed);
  const auto values =
      core::MakeKeys(core::WorkloadKind::kUniform, env.n, env.seed + 1);
  for (const auto& algorithm :
       {sort::AlgorithmId{sort::SortKind::kLsdRadix, 3},
        sort::AlgorithmId{sort::SortKind::kMsdRadix, 6},
        sort::AlgorithmId{sort::SortKind::kQuicksort, 0}}) {
    dbops::GroupByOptions options;
    options.algorithm = algorithm;
    const auto result = bench::RequireOk(
        dbops::GroupByAggregate(engine, group_keys, values, options),
        "dbops group-by");
    bench::Require(result.verified, "dbops group-by: UNVERIFIED result");
    group_table.AddRow(
        {algorithm.Name(),
         TablePrinter::FmtInt(static_cast<long long>(result.groups.size())),
         TablePrinter::FmtPercent(result.sort_write_reduction, 1)});
  }
  group_table.Print();

  TablePrinter join_table("Sort-merge join: per-side sort write reduction");
  join_table.SetHeader({"algorithm", "output_pairs", "left_WR", "right_WR"});
  const auto left =
      core::MakeKeys(core::WorkloadKind::kSkewed, env.n / 2, env.seed + 2);
  const auto right =
      core::MakeKeys(core::WorkloadKind::kSkewed, env.n / 2, env.seed + 3);
  for (const auto& algorithm :
       {sort::AlgorithmId{sort::SortKind::kLsdRadix, 3},
        sort::AlgorithmId{sort::SortKind::kMsdRadix, 6}}) {
    dbops::JoinOptions options;
    options.algorithm = algorithm;
    options.max_output_pairs = 50000000;
    const auto result = bench::RequireOk(
        dbops::SortMergeJoin(engine, left, right, options), "dbops join");
    bench::Require(result.verified, "dbops join: UNVERIFIED result");
    join_table.AddRow(
        {algorithm.Name(),
         TablePrinter::FmtInt(static_cast<long long>(result.pairs.size())),
         TablePrinter::FmtPercent(result.left_sort_write_reduction, 1),
         TablePrinter::FmtPercent(result.right_sort_write_reduction, 1)});
  }
  join_table.Print();
  std::printf(
      "\nBoth operators inherit the sort's write reduction unchanged: the "
      "post-sort scan is read-dominated, so the approximate memory's gain "
      "survives to the operator level while results stay exact.\n");
  return 0;
}

}  // namespace
}  // namespace approxmem

int main(int argc, char** argv) { return approxmem::Main(argc, argv); }
