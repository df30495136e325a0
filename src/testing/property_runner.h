// Property-based runner: deterministic case generation, parallel
// execution, and greedy shrinking of failures.
//
// Cases are pure functions of (runner seed, case index), so a failing case
// replays from two numbers. Execution goes through ThreadPool::ParallelFor
// with one result slot per case, which makes verdicts — and the aggregate
// digest — independent of the thread count: --threads=1 and --threads=0
// (hardware) must produce identical digests.
#ifndef APPROXMEM_TESTING_PROPERTY_RUNNER_H_
#define APPROXMEM_TESTING_PROPERTY_RUNNER_H_

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "sort/sort_common.h"
#include "testing/differential_oracle.h"
#include "testing/generators.h"

namespace approxmem::testing {

/// Checks one case; must be deterministic and thread-safe. Usually wraps
/// RunDifferentialOracle with fixed OracleOptions.
using CaseCheck = std::function<OracleReport(const OracleCase&)>;

/// Candidate checks RunCases spends greedily minimizing its first failure.
inline constexpr size_t kMaxShrinkSteps = 64;

struct RunnerOptions {
  /// Root seed for random case generation (and each case's engine seed).
  uint64_t seed = 1;
  /// Total concurrency: 1 runs everything inline (exact serial execution),
  /// 0 uses hardware concurrency. Verdicts are identical either way.
  int threads = 1;

  /// The pools MakeRandomCase draws from.
  size_t min_n = 4;
  size_t max_n = 512;
  std::vector<int> t_labels = {0, 30, 55, 100};
  std::vector<sort::AlgorithmId> algorithms;  // Empty = StudyAlgorithms().
  std::vector<InputShape> shapes;             // Empty = AllShapes().
};

struct RunnerResult {
  size_t cases_run = 0;
  size_t cases_failed = 0;
  /// FNV-1a over every case's (index, digest), in index order.
  uint64_t digest = 0;
  /// Reports of failing cases, in index order (pre-shrink).
  std::vector<OracleReport> failures;
  /// The first failure after shrinking (ShrinkFailure, kMaxShrinkSteps),
  /// when any case failed.
  std::optional<OracleReport> minimized;

  bool ok() const { return cases_failed == 0; }
  /// One-line repro instructions for the minimized failure.
  std::string ReproLine() const;
};

/// Every algorithm of every sort kind: the Section 3/5 study set plus the
/// Appendix B histogram radix variants (3..6 bits). This is the runner's
/// default pool — correctness tooling covers all six kinds, not just the
/// ones the paper benchmarks.
const std::vector<sort::AlgorithmId>& AllKindAlgorithms();

/// The deterministic random case at (options.seed, index); its
/// sort_threads is drawn from {1, 2, 4}, any of which must give the same
/// verdict and digest.
OracleCase MakeRandomCase(const RunnerOptions& options, uint64_t index);

/// Runs an explicit case list (e.g. a full shape x T x algorithm matrix).
RunnerResult RunCases(const RunnerOptions& options,
                      const std::vector<OracleCase>& cases,
                      const CaseCheck& check);

/// Runs `count` random cases drawn with MakeRandomCase.
RunnerResult RunRandom(const RunnerOptions& options, size_t count,
                       const CaseCheck& check);

/// Greedy shrink: repeatedly tries smaller variants (halved/decremented n,
/// earlier shape, lower T label, earlier algorithm) and keeps any that
/// still fails, until a local minimum or `max_steps`. Returns the report
/// of the minimized case.
OracleReport ShrinkFailure(const OracleCase& failing, const CaseCheck& check,
                           size_t max_steps);

/// The full deterministic matrix: every (algorithm, shape, T) combination
/// at size `n`, seeded per-case from `seed`.
std::vector<OracleCase> MatrixCases(const RunnerOptions& options, size_t n);

}  // namespace approxmem::testing

#endif  // APPROXMEM_TESTING_PROPERTY_RUNNER_H_
