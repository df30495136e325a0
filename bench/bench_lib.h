// Shared plumbing for the figure/table regeneration binaries.
//
// Every bench accepts:
//   --n=<elements>   input size (default per bench; the paper uses 16M)
//   --full           run at the paper's full scale (n = 16,000,000)
//   --seed=<uint>    experiment seed
//   --csv_dir=<dir>  where CSV artifacts are written (default
//                    bench_artifacts/ under the current directory; created
//                    with its parents, and the bench exits 1 when it
//                    cannot write there)
//   --threads=<k>    sweep/calibration concurrency (default: hardware;
//                    --threads=1 runs fully serially). For a fixed seed the
//                    CSV artifacts are byte-identical for every k.
//   --sort_threads=<k>  intra-sort concurrency for the striped radix
//                    passes (default 1 = serial; <= 0 means hardware).
//                    CSV artifacts are byte-identical for every k. Inside
//                    sweep worker threads the striped passes run inline, so
//                    --threads and --sort_threads never oversubscribe.
//   --calibration_cache=<path>  load cached per-T calibrations from <path>
//                    before the run and save the (possibly grown) cache
//                    back afterwards, so repeated figure runs skip the
//                    Monte-Carlo calibration entirely.
//   --calibration_trials=<k>  Monte-Carlo trials per calibrated T.
//   --backend=<name> memory-technology backend every engine allocates on
//                    (see approx/memory_backend.h); default: the one the
//                    figure studies (spintronic for Figs. 12-14, else
//                    mlc-pcm). Any registered backend works.
// plus the APPROX_BENCH_N environment variable as an n override.
#ifndef APPROXMEM_BENCH_BENCH_LIB_H_
#define APPROXMEM_BENCH_BENCH_LIB_H_

#include <cstdio>
#include <cstdlib>
#include <functional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "approx/memory_backend.h"
#include "common/flags.h"
#include "common/table_printer.h"
#include "core/engine.h"
#include "core/workload.h"
#include "sort/sort_common.h"

namespace approxmem::bench {

inline constexpr size_t kDefaultN = 160000;
inline constexpr size_t kPaperN = 16000000;

struct BenchEnv {
  size_t n = kDefaultN;
  uint64_t seed = 42;
  bool full = false;
  int threads = 0;       // 0 = hardware concurrency.
  int sort_threads = 1;  // Intra-sort workers; <= 0 = hardware concurrency.
  std::string csv_dir = "bench_artifacts";
  std::string calibration_cache;  // Empty = no persistence.
  std::string backend = std::string(approx::kPcmBackendName);
  Flags flags;
};

/// Parses argv; exits 2 on malformed flags, and also on any flag `usage`
/// does not list when `usage` is non-empty (printing the usage text).
Flags ParseBenchFlags(int argc, char** argv, std::string_view usage = {});

/// The environment for one figure or study: `default_n` and
/// `default_backend` apply unless --n/--full/APPROX_BENCH_N or --backend
/// override them. Exits 2 on an unregistered --backend.
BenchEnv ResolveBenchEnv(
    const Flags& flags, size_t default_n = kDefaultN,
    std::string_view default_backend = approx::kPcmBackendName);

/// ParseBenchFlags + ResolveBenchEnv for single-study benches.
inline BenchEnv ParseBenchEnv(
    int argc, char** argv, size_t default_n = kDefaultN,
    std::string_view default_backend = approx::kPcmBackendName) {
  return ResolveBenchEnv(ParseBenchFlags(argc, argv), default_n,
                         default_backend);
}

/// The T grid of Figures 4 and 9: 0.025 .. 0.1 in steps of 0.005.
inline std::vector<double> PaperTGrid() {
  std::vector<double> grid;
  for (int i = 0; i <= 15; ++i) grid.push_back(0.025 + 0.005 * i);
  return grid;
}

/// Engine seeded with env.seed, sharing the process-wide calibration cache
/// (and its --calibration_cache persistence) with every other engine.
core::ApproxSortEngine MakeEngine(const BenchEnv& env);

/// The options MakeEngine would use — for benches that need to tweak a
/// field (e.g. enable health monitoring) while still sharing the
/// process-wide calibration cache.
core::EngineOptions MakeEngineOptions(const BenchEnv& env);

/// Engine for sweep grid cell (row, col): seeded with env.seed xor a
/// SplitMix64 hash of the cell coordinates and sharing the process-wide
/// calibration cache, so concurrent cells never contend on an RNG stream
/// and each T is calibrated exactly once.
core::ApproxSortEngine MakeCellEngine(const BenchEnv& env, size_t row,
                                      size_t col);

/// Runs fn(row, col) for every cell of a rows x cols grid, up to
/// --threads at a time. Cells must be independent (use MakeCellEngine and
/// write results into per-cell slots); the caller assembles output in grid
/// order afterwards, so artifacts are identical for every thread count.
void ParallelSweep(const BenchEnv& env, size_t rows, size_t cols,
                   const std::function<void(size_t row, size_t col)>& fn);

/// Aborts the bench with a one-line diagnostic when an approx-refine
/// run finished unverified: a figure must never be built from numbers
/// whose output was not exactly sorted.
inline void RequireVerified(const refine::RefineReport& report,
                            const char* context) {
  if (report.verified()) return;
  std::fprintf(stderr, "%s: UNVERIFIED refine output — %s\n", context,
               report.verification.ToString().c_str());
  std::exit(1);
}

/// Unwraps a StatusOr or aborts the bench with its diagnostic — the shared
/// form of the per-bench `if (!result.ok()) { fprintf; return 1; }` block.
template <typename T>
T RequireOk(StatusOr<T> result, const char* context) {
  if (!result.ok()) {
    std::fprintf(stderr, "%s: %s\n", context,
                 result.status().ToString().c_str());
    std::exit(1);
  }
  return std::move(result).value();
}

/// RequireOk + RequireVerified in one step for approx-refine runs.
inline core::RefineOutcome RequireVerifiedOutcome(
    StatusOr<core::RefineOutcome> outcome, const char* context) {
  core::RefineOutcome value = RequireOk(std::move(outcome), context);
  RequireVerified(value.refine, context);
  return value;
}

/// env.csv_dir/`file`, creating the directory tree first. Exits 1 naming
/// the directory when it cannot be created.
std::string CsvPath(const BenchEnv& env, const std::string& file);

/// Exits 1 printing `failure` unless `ok`: a bench must never report
/// success without its artifact or with an unverified result.
void Require(bool ok, const std::string& failure);

/// Writes `table` as CsvPath(env, `file`), or exits 1 naming the path.
void WriteCsv(const BenchEnv& env, const TablePrinter& table,
              const std::string& file);

/// A 64-bit digest as 16 lower-case hex digits, for digest table cells.
std::string HexDigest(uint64_t digest);

void PrintRunHeader(const char* what, const BenchEnv& env);

}  // namespace approxmem::bench

#endif  // APPROXMEM_BENCH_BENCH_LIB_H_
