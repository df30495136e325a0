// Database scenario: ORDER BY over a table, the workload the paper's
// introduction motivates.
//
//   SELECT order_id, amount_cents FROM orders ORDER BY amount_cents;
//
// Rows live in precise memory (an imprecise bank account would be a
// disaster); only the sort-key column is staged through approximate memory
// by the approx-refine mechanism. The sorted record IDs then drive the
// (precise) result materialization, so the query output is exact while the
// sort saved write latency.
//
//   $ ./build/examples/db_orderby [--rows=500000] [--t=0.055]
#include <cinttypes>
#include <cstdio>
#include <vector>

#include "common/flags.h"
#include "common/random.h"
#include "core/engine.h"

namespace {

constexpr char kUsage[] = "usage: db_orderby [--rows=500000] [--t=0.055]\n";

struct OrderRow {
  uint32_t order_id;
  uint32_t amount_cents;  // The ORDER BY key.
  uint32_t customer_id;
};

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
  const size_t rows = static_cast<size_t>(flags->GetInt("rows", 500000));
  const double t = flags->GetDouble("t", 0.055);

  // Build the "orders" table.
  Rng rng(2026);
  std::vector<OrderRow> table(rows);
  std::vector<uint32_t> key_column(rows);
  for (size_t i = 0; i < rows; ++i) {
    table[i].order_id = static_cast<uint32_t>(1000000 + i);
    table[i].amount_cents = static_cast<uint32_t>(rng.UniformInt(100000000));
    table[i].customer_id = static_cast<uint32_t>(rng.UniformInt(100000));
    key_column[i] = table[i].amount_cents;
  }

  // Sort the key column with approx-refine; record IDs come back as the
  // permutation to apply to the table.
  core::ApproxSortEngine engine({});
  std::vector<uint32_t> sorted_keys;
  std::vector<uint32_t> permutation;
  const auto outcome = engine.SortApproxRefine(
      key_column, sort::AlgorithmId{sort::SortKind::kMsdRadix, 6}, t,
      &sorted_keys, &permutation);
  if (!outcome.ok()) {
    std::fprintf(stderr, "%s\n", outcome.status().ToString().c_str());
    return 1;
  }

  // Materialize the query result from precise memory and re-verify against
  // the table itself (not just the sorted key column).
  bool exact = outcome->refine.verified();
  uint64_t checksum = 0;
  uint32_t previous = 0;
  for (size_t i = 0; i < rows; ++i) {
    const OrderRow& row = table[permutation[i]];
    if (row.amount_cents != sorted_keys[i] || row.amount_cents < previous) {
      exact = false;
    }
    previous = row.amount_cents;
    checksum += row.order_id;
  }

  std::printf("ORDER BY over %zu rows (T=%.3f, 6-bit MSD radix)\n", rows, t);
  std::printf("result exact               : %s\n", exact ? "yes" : "NO");
  std::printf("cheapest order             : id=%u amount=%u.%02u\n",
              table[permutation[0]].order_id, sorted_keys[0] / 100,
              sorted_keys[0] % 100);
  std::printf("most expensive order       : id=%u amount=%u.%02u\n",
              table[permutation[rows - 1]].order_id,
              sorted_keys[rows - 1] / 100, sorted_keys[rows - 1] % 100);
  std::printf("result checksum            : %" PRIu64 "\n", checksum);
  std::printf("write latency saved        : %.2f%% vs precise-only sort\n",
              outcome->write_reduction * 100.0);
  std::printf("elements repaired in refine: %zu (%.3f%% of rows)\n",
              outcome->refine.rem_estimate,
              100.0 * static_cast<double>(outcome->refine.rem_estimate) /
                  static_cast<double>(rows));
  return exact ? 0 : 1;
}
