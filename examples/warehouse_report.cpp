// Analytics scenario: a warehouse report combining the two database
// operators built on approx-refine sorting —
//
//   SELECT s.region, COUNT(*), SUM(s.amount), MIN(s.amount), MAX(s.amount)
//   FROM sales s JOIN products p ON s.product_id = p.product_id
//   WHERE p.category = 42
//   GROUP BY s.region ORDER BY s.region;
//
// The join and the aggregation each sort through approximate memory and
// repair the order in precise memory, so every reported number is exact.
//
//   $ ./build/examples/warehouse_report [--sales=200000] [--products=20000]
#include <cinttypes>
#include <cstdio>
#include <vector>

#include "common/flags.h"
#include "common/random.h"
#include "core/engine.h"
#include "dbops/aggregate.h"
#include "dbops/join.h"

namespace {

constexpr char kUsage[] =
    "usage: warehouse_report [--sales=200000] [--products=20000]\n";

}  // namespace

int main(int argc, char** argv) {
  using namespace approxmem;

  auto flags = Flags::Parse(argc, argv);
  const Status listed =
      flags.ok() ? flags->CheckListedIn(kUsage) : flags.status();
  if (!listed.ok()) {
    std::fprintf(stderr, "%s\n%s", listed.ToString().c_str(), kUsage);
    return 2;
  }
  const size_t n_sales = static_cast<size_t>(flags->GetInt("sales", 200000));
  const size_t n_products =
      static_cast<size_t>(flags->GetInt("products", 20000));

  // Build the tables.
  Rng rng(99);
  std::vector<uint32_t> sale_product(n_sales);
  std::vector<uint32_t> sale_region(n_sales);
  std::vector<uint32_t> sale_amount(n_sales);
  for (size_t i = 0; i < n_sales; ++i) {
    sale_product[i] = static_cast<uint32_t>(rng.UniformInt(n_products));
    sale_region[i] = static_cast<uint32_t>(rng.UniformInt(12));
    sale_amount[i] = static_cast<uint32_t>(rng.UniformInt(100000));
  }
  std::vector<uint32_t> product_id(n_products);
  std::vector<uint32_t> product_category(n_products);
  for (size_t i = 0; i < n_products; ++i) {
    product_id[i] = static_cast<uint32_t>(i);
    product_category[i] = static_cast<uint32_t>(rng.UniformInt(64));
  }

  core::ApproxSortEngine engine({});

  // WHERE p.category = 42: filter the product side first (precise scan).
  std::vector<uint32_t> wanted_ids;
  for (size_t i = 0; i < n_products; ++i) {
    if (product_category[i] == 42) wanted_ids.push_back(product_id[i]);
  }

  // JOIN sales.product_id = wanted products, via approx-refine sort-merge.
  const auto join =
      dbops::SortMergeJoin(engine, sale_product, wanted_ids, {});
  if (!join.ok() || !join->verified) {
    std::fprintf(stderr, "join failed\n");
    return 1;
  }

  // GROUP BY region over the joined sales rows.
  std::vector<uint32_t> regions;
  std::vector<uint32_t> amounts;
  regions.reserve(join->pairs.size());
  for (const dbops::JoinPair& pair : join->pairs) {
    regions.push_back(sale_region[pair.left_row]);
    amounts.push_back(sale_amount[pair.left_row]);
  }
  const auto report = dbops::GroupByAggregate(engine, regions, amounts, {});
  if (!report.ok() || !report->verified) {
    std::fprintf(stderr, "aggregation failed\n");
    return 1;
  }

  std::printf("Category-42 sales report (%zu sales x %zu products, %zu "
              "matching rows)\n\n", n_sales, n_products, join->pairs.size());
  std::printf("%-8s %-10s %-14s %-10s %-10s\n", "region", "orders", "revenue",
              "min", "max");
  for (const dbops::GroupRow& row : report->groups) {
    std::printf("%-8u %-10" PRIu64 " %-14" PRIu64 " %-10u %-10u\n",
                row.group_key, row.count, row.sum, row.min, row.max);
  }
  std::printf("\njoin sorts saved %.1f%% / %.1f%% of write latency; "
              "group-by sort saved %.1f%% — all results exact.\n",
              join->left_sort_write_reduction * 100.0,
              join->right_sort_write_reduction * 100.0,
              report->sort_write_reduction * 100.0);
  return 0;
}
