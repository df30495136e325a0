// Tuning advisor: pick the guard-band width T and decide approx-refine vs
// precise-only for a given workload, the decision procedure Section 4.3
// sketches ("switch between the two approaches accordingly").
//
// For each candidate T the advisor combines the calibrated p(t) with a
// cheap pilot run (a small sample sorted approximately to estimate Rem~/n)
// and evaluates Equation 4; it then validates the chosen point with a full
// measured run.
//
//   $ ./build/examples/tuning_advisor [--n=400000] [--algo=lsd3]
#include <cstdio>
#include <string>

#include "common/flags.h"
#include "core/engine.h"
#include "core/workload.h"
#include "refine/cost_model.h"

int main(int argc, char** argv) {
  using namespace approxmem;

  auto flags = Flags::Parse(argc, argv);
  if (!flags.ok()) {
    std::fprintf(stderr, "%s\n", flags.status().ToString().c_str());
    return 2;
  }
  const size_t n = static_cast<size_t>(flags->GetInt("n", 400000));
  const StatusOr<sort::AlgorithmId> parsed =
      sort::ParseAlgorithm(flags->GetString("algo", "lsd3"));
  if (!parsed.ok()) {
    std::fprintf(stderr, "%s\n", parsed.status().ToString().c_str());
    return 2;
  }
  const sort::AlgorithmId algorithm = *parsed;
  const size_t pilot_n = static_cast<size_t>(
      flags->GetInt("pilot_n", static_cast<int64_t>(n / 20 + 1000)));

  core::ApproxSortEngine engine({});
  const auto keys = core::MakeKeys(core::WorkloadKind::kUniform, n, 11);
  const auto pilot =
      std::vector<uint32_t>(keys.begin(), keys.begin() + pilot_n);

  std::printf("Tuning %s for n=%zu (pilot runs at n=%zu)\n",
              algorithm.Name().c_str(), n, pilot_n);
  std::printf("%-8s %-8s %-10s %-12s %s\n", "T", "p(t)", "pilot_Rem", "Eq.4_WR",
              "decision");

  double best_wr = 0.0;
  double best_t = 0.0;
  for (double t = 0.03; t <= 0.095; t += 0.005) {
    const double p = engine.PvRatio(t);
    // Pilot: approximate-only sort of a sample to estimate Rem~/n.
    const auto pilot_result = engine.SortApproxOnly(pilot, algorithm, t);
    if (!pilot_result.ok()) {
      std::fprintf(stderr, "%s\n", pilot_result.status().ToString().c_str());
      return 1;
    }
    const double rem_fraction = pilot_result->sortedness.rem_ratio;
    const size_t projected_rem =
        static_cast<size_t>(rem_fraction * static_cast<double>(n));
    const double wr =
        refine::PredictWriteReduction(algorithm, n, p, projected_rem);
    std::printf("%-8.3f %-8.3f %-10.4f %-+12.4f %s\n", t, p, rem_fraction, wr,
                wr > 0 ? "approx-refine" : "precise-only");
    if (wr > best_wr) {
      best_wr = wr;
      best_t = t;
    }
  }

  if (best_wr <= 0.0) {
    std::printf("\nAdvice: stay on precise memory; approx-refine never wins "
                "for %s at this size.\n", algorithm.Name().c_str());
    return 0;
  }
  std::printf("\nAdvice: T = %.3f (predicted %.2f%% write reduction). "
              "Validating with a full run...\n", best_t, best_wr * 100.0);
  const auto outcome = engine.SortApproxRefine(keys, algorithm, best_t);
  if (!outcome.ok()) {
    std::fprintf(stderr, "%s\n", outcome.status().ToString().c_str());
    return 1;
  }
  std::printf("Measured: %.2f%% write reduction, output verified %s.\n",
              outcome->write_reduction * 100.0,
              outcome->refine.verified() ? "exactly sorted" : "UNSORTED");
  return outcome->refine.verified() ? 0 : 1;
}
