// Energy scenario (Appendix A): a battery-powered device with approximate
// spintronic memory compares the four published operating points for an
// exact sorting job and picks the one that minimizes total write energy.
//
//   $ ./build/examples/energy_saver [--n=300000]
#include <cstdio>

#include "approx/spintronic.h"
#include "common/flags.h"
#include "core/engine.h"
#include "core/workload.h"

namespace {

constexpr char kUsage[] = "usage: energy_saver [--n=300000]\n";

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
  const size_t n = static_cast<size_t>(flags->GetInt("n", 300000));

  core::EngineOptions options;
  options.backend = std::string(approx::kSpintronicBackendName);
  core::ApproxSortEngine engine(options);
  const auto keys = core::MakeKeys(core::WorkloadKind::kUniform, n, 13);
  const sort::AlgorithmId algorithm{sort::SortKind::kLsdRadix, 3};

  std::printf("Exact sort of %zu keys on spintronic memory (%s)\n", n,
              algorithm.Name().c_str());
  std::printf("%-14s %-14s %-14s %-12s %s\n", "operating_pt", "approx_energy",
              "refine_energy", "saving", "verified");

  double best_saving = 0.0;
  approx::SpintronicConfig best_config;
  bool have_best = false;
  for (const auto& config : approx::PaperSpintronicConfigs()) {
    const auto outcome =
        engine.SortApproxRefine(keys, algorithm, config.bit_error_prob);
    if (!outcome.ok()) {
      std::fprintf(stderr, "%s\n", outcome.status().ToString().c_str());
      return 1;
    }
    std::printf("%-14s %-14.0f %-14.0f %-+11.2f%% %s\n",
                approx::SpintronicLabel(config).c_str(),
                outcome->refine.ApproxStageWriteCost(),
                outcome->refine.RefineStageWriteCost(),
                outcome->write_reduction * 100.0,
                outcome->refine.verified() ? "yes" : "NO");
    if (outcome->write_reduction > best_saving && outcome->refine.verified()) {
      best_saving = outcome->write_reduction;
      best_config = config;
      have_best = true;
    }
  }

  if (!have_best) {
    std::printf("\nNo operating point beats precise memory for this job; "
                "run precisely.\n");
    return 0;
  }
  std::printf("\nPick %s: %.2f%% of the write energy saved with an exactly "
              "sorted result.\n",
              approx::SpintronicLabel(best_config).c_str(),
              best_saving * 100.0);
  return 0;
}
