// Resilience overhead: what does the verified-retry ladder cost when
// nothing goes wrong?
//
// Runs every headline algorithm twice over the same input — once through
// the plain approx-refine path, once through SortResilient with health
// monitoring enabled — and compares cumulative write cost and write
// reduction. With no faults injected the ladder must stop after one
// attempt, so the only overhead is the monitor's canary probes: the
// acceptance target is <= 2% extra write cost and zero extra attempts.
#include <cstdio>

#include "bench/bench_lib.h"
#include "common/table_printer.h"
#include "core/resilience.h"

namespace approxmem {
namespace {

int Main(int argc, char** argv) {
  const bench::BenchEnv env = bench::ParseBenchEnv(argc, argv, 100000);
  bench::PrintRunHeader("Resilience: no-fault overhead of the retry ladder",
                        env);
  const auto keys =
      core::MakeKeys(core::WorkloadKind::kUniform, env.n, env.seed);
  const double t = env.flags.GetDouble("t", 0.055);

  TablePrinter table("plain approx-refine vs SortResilient (monitor on)");
  table.SetHeader({"algorithm", "attempts", "WR_plain", "WR_resilient",
                   "canary_share", "overhead"});
  bool ok = true;
  for (const auto& algorithm : sort::StudyAlgorithms()) {
    // Separate engines so both paths see identical RNG streams.
    core::ApproxSortEngine plain_engine = bench::MakeEngine(env);
    const auto plain = bench::RequireVerifiedOutcome(
        plain_engine.SortApproxRefine(keys, algorithm, t),
        "resilience_overhead");

    core::EngineOptions options = bench::MakeEngineOptions(env);
    options.health.enabled = true;
    core::ApproxSortEngine resilient_engine(options);
    const auto resilient = bench::RequireOk(
        core::SortResilient(resilient_engine, keys, algorithm, t),
        "resilience_overhead");
    if (!resilient.verified) {
      std::fprintf(stderr,
                   "resilience_overhead: UNVERIFIED resilient output — %s\n",
                   resilient.refine.verification.ToString().c_str());
      return 1;
    }

    // Overhead is measured against the resilient run's own single attempt:
    // with one attempt, cumulative - attempt == canary probes, the only
    // true cost of resilience. (Comparing against the *plain* run instead
    // would also count RNG stream perturbation — monitoring shifts every
    // array's substream, an unbiased difference, not an overhead.)
    const double attempt_cost = resilient.refine.TotalWriteCost();
    const double overhead =
        attempt_cost > 0.0
            ? resilient.cumulative.write_cost / attempt_cost - 1.0
            : 0.0;
    const double canary_share =
        resilient.cumulative.write_cost > 0.0
            ? resilient.canary_costs.write_cost /
                  resilient.cumulative.write_cost
            : 0.0;
    if (resilient.attempts.size() != 1 || overhead > 0.02) ok = false;
    table.AddRow(
        {algorithm.Name(),
         TablePrinter::FmtInt(
             static_cast<long long>(resilient.attempts.size())),
         TablePrinter::FmtPercent(plain.write_reduction, 2),
         TablePrinter::FmtPercent(resilient.write_reduction, 2),
         TablePrinter::FmtPercent(canary_share, 3),
         TablePrinter::FmtPercent(overhead, 3)});
  }
  table.Print();
  bench::WriteCsv(env, table, "resilience_overhead.csv");
  if (!ok) {
    std::fprintf(stderr,
                 "resilience_overhead: ladder took extra attempts or >2%% "
                 "write-cost overhead on a fault-free run\n");
    return 1;
  }
  std::printf(
      "\nNo-fault runs stop at one attempt; the canary probes are the whole "
      "overhead and stay within the 2%% budget.\n");
  return 0;
}

}  // namespace
}  // namespace approxmem

int main(int argc, char** argv) { return approxmem::Main(argc, argv); }
