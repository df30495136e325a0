// Quickstart: sort one million <key, record-id> pairs with the
// approx-refine mechanism and inspect the cost ledger.
//
//   $ ./build/examples/quickstart [--n=1000000] [--t=0.055] [--seed=7]
//
// The engine simulates a hybrid memory (Section 2's MLC PCM model): the
// keys are copied into approximate memory, sorted there (cheap, slightly
// wrong), and repaired in precise memory (Listing 1/2's refine stage). The
// output is exactly sorted; the win is the reduced total write latency.
#include <cstdio>

#include "common/flags.h"
#include "core/engine.h"
#include "core/workload.h"

namespace {

constexpr char kUsage[] =
    "usage: quickstart [--n=1000000] [--t=0.055] [--seed=7]\n";

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
  const size_t n = static_cast<size_t>(flags->GetInt("n", 1000000));
  const double t = flags->GetDouble("t", 0.055);
  const uint64_t seed = static_cast<uint64_t>(flags->GetInt("seed", 7));

  // 1. An engine owns the simulated hybrid memory.
  core::EngineOptions options;
  options.seed = seed;
  core::ApproxSortEngine engine(options);

  // 2. A workload: uniformly random 32-bit keys (the paper's input).
  const std::vector<uint32_t> keys =
      core::MakeKeys(core::WorkloadKind::kUniform, n, seed);

  // 3. Sort with approx-refine; 3-bit LSD radix is the paper's best case.
  const sort::AlgorithmId algorithm{sort::SortKind::kLsdRadix, 3};
  std::vector<uint32_t> sorted_keys;
  std::vector<uint32_t> sorted_ids;
  const auto outcome =
      engine.SortApproxRefine(keys, algorithm, t, &sorted_keys, &sorted_ids);
  if (!outcome.ok()) {
    std::fprintf(stderr, "sort failed: %s\n",
                 outcome.status().ToString().c_str());
    return 1;
  }

  // 4. The result is exactly sorted — the refine stage guarantees it.
  std::printf("n=%zu  T=%.3f  algorithm=%s\n", n, t,
              algorithm.Name().c_str());
  std::printf("verified exactly sorted: %s\n",
              outcome->refine.verified() ? "yes" : "NO (bug!)");
  std::printf("first keys: %u %u %u ... last: %u\n", sorted_keys[0],
              sorted_keys[1], sorted_keys[2], sorted_keys.back());

  // 5. The cost ledger (total memory write latency, Section 4.3).
  const auto& report = outcome->refine;
  std::printf("\napprox stage write latency : %10.3f ms\n",
              report.ApproxStageWriteCost() / 1e6);
  std::printf("refine stage write latency : %10.3f ms\n",
              report.RefineStageWriteCost() / 1e6);
  std::printf("precise-only baseline      : %10.3f ms\n",
              outcome->baseline.TotalWriteCost() / 1e6);
  std::printf("write reduction            : %10.2f %%  (predicted %.2f %%)\n",
              outcome->write_reduction * 100.0,
              outcome->predicted_write_reduction * 100.0);
  std::printf("Rem~ (elements refined)    : %10zu  (%.2f%% of n)\n",
              report.rem_estimate,
              100.0 * static_cast<double>(report.rem_estimate) /
                  static_cast<double>(n));
  return 0;
}
