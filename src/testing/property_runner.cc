#include "testing/property_runner.h"

#include <algorithm>
#include <iterator>
#include <sstream>

#include "common/hash.h"
#include "common/random.h"
#include "common/thread_pool.h"
#include "sort/sort_common.h"

namespace approxmem::testing {

const std::vector<sort::AlgorithmId>& AllKindAlgorithms() {
  static const std::vector<sort::AlgorithmId> kAll = [] {
    std::vector<sort::AlgorithmId> all = sort::StudyAlgorithms();
    for (int bits = 3; bits <= 6; ++bits) {
      all.push_back(sort::AlgorithmId{sort::SortKind::kLsdHistogram, bits});
    }
    for (int bits = 3; bits <= 6; ++bits) {
      all.push_back(sort::AlgorithmId{sort::SortKind::kMsdHistogram, bits});
    }
    return all;
  }();
  return kAll;
}

namespace {

const std::vector<sort::AlgorithmId>& AlgorithmPool(
    const RunnerOptions& options) {
  return options.algorithms.empty() ? AllKindAlgorithms()
                                    : options.algorithms;
}

const std::vector<InputShape>& ShapePool(const RunnerOptions& options) {
  return options.shapes.empty() ? AllShapes() : options.shapes;
}

/// Seed for case `index` under root `seed`; also the engine seed, so the
/// whole run replays from the pair alone.
uint64_t CaseSeed(uint64_t seed, uint64_t index) {
  return Fnv1a64(&index, sizeof(index), seed ^ 0x9e3779b97f4a7c15ULL) | 1u;
}

}  // namespace

std::string RunnerResult::ReproLine() const {
  if (!minimized.has_value()) return "all cases passed";
  std::ostringstream out;
  out << "minimized failure: " << minimized->oracle_case.Name()
      << " — rerun with these exact values to replay";
  return out.str();
}

OracleCase MakeRandomCase(const RunnerOptions& options, uint64_t index) {
  Rng rng(CaseSeed(options.seed, index));
  const auto& algorithms = AlgorithmPool(options);
  const auto& shapes = ShapePool(options);
  OracleCase oracle_case;
  oracle_case.seed = CaseSeed(options.seed, index);
  oracle_case.n = options.min_n + rng.UniformInt(options.max_n -
                                                 options.min_n + 1);
  oracle_case.paper_t =
      options.t_labels[rng.UniformInt(options.t_labels.size())];
  oracle_case.algorithm = algorithms[rng.UniformInt(algorithms.size())];
  oracle_case.shape = shapes[rng.UniformInt(shapes.size())];
  constexpr int kSortThreads[] = {1, 2, 4};
  oracle_case.sort_threads =
      kSortThreads[rng.UniformInt(std::size(kSortThreads))];
  return oracle_case;
}

std::vector<OracleCase> MatrixCases(const RunnerOptions& options, size_t n) {
  std::vector<OracleCase> cases;
  uint64_t index = 0;
  for (const sort::AlgorithmId& algorithm : AlgorithmPool(options)) {
    for (const InputShape shape : ShapePool(options)) {
      for (const int paper_t : options.t_labels) {
        OracleCase oracle_case;
        oracle_case.seed = CaseSeed(options.seed, index++);
        oracle_case.n = n;
        oracle_case.paper_t = paper_t;
        oracle_case.algorithm = algorithm;
        oracle_case.shape = shape;
        cases.push_back(oracle_case);
      }
    }
  }
  return cases;
}

RunnerResult RunCases(const RunnerOptions& options,
                      const std::vector<OracleCase>& cases,
                      const CaseCheck& check) {
  RunnerResult result;
  result.cases_run = cases.size();
  std::vector<OracleReport> reports(cases.size());

  ThreadPool pool(options.threads);
  pool.ParallelFor(0, cases.size(), [&](size_t i) {
    reports[i] = check(cases[i]);
  });

  // Aggregate in index order so the digest is independent of scheduling.
  result.digest = Fnv1a64(nullptr, 0);
  for (size_t i = 0; i < reports.size(); ++i) {
    const uint64_t slot[2] = {static_cast<uint64_t>(i), reports[i].digest};
    result.digest = Fnv1a64(slot, sizeof(slot), result.digest);
    if (!reports[i].ok) {
      ++result.cases_failed;
      result.failures.push_back(reports[i]);
    }
  }

  if (!result.failures.empty()) {
    result.minimized = ShrinkFailure(result.failures.front().oracle_case,
                                     check, kMaxShrinkSteps);
  }
  return result;
}

RunnerResult RunRandom(const RunnerOptions& options, size_t count,
                       const CaseCheck& check) {
  std::vector<OracleCase> cases(count);
  for (size_t i = 0; i < count; ++i) {
    cases[i] = MakeRandomCase(options, i);
  }
  return RunCases(options, cases, check);
}

OracleReport ShrinkFailure(const OracleCase& failing, const CaseCheck& check,
                           size_t max_steps) {
  OracleCase best = failing;
  OracleReport best_report = check(best);
  if (best_report.ok) return best_report;  // Flaky input; nothing to do.

  size_t steps = 0;
  bool improved = true;
  while (improved && steps < max_steps) {
    improved = false;

    std::vector<OracleCase> candidates;
    if (best.n > 2) {
      OracleCase halved = best;
      halved.n = best.n / 2;
      candidates.push_back(halved);
      OracleCase decremented = best;
      decremented.n = best.n - 1;
      candidates.push_back(decremented);
    }
    {
      const auto& shapes = AllShapes();
      const auto it = std::find(shapes.begin(), shapes.end(), best.shape);
      if (it != shapes.begin() && it != shapes.end()) {
        OracleCase simpler = best;
        simpler.shape = *(it - 1);
        candidates.push_back(simpler);
      }
    }
    if (best.paper_t > 0) {
      OracleCase cooler = best;
      cooler.paper_t = best.paper_t > 55 ? 55 : (best.paper_t > 30 ? 30 : 0);
      candidates.push_back(cooler);
    }

    for (const OracleCase& candidate : candidates) {
      if (steps >= max_steps) break;
      ++steps;
      OracleReport report = check(candidate);
      if (!report.ok) {
        best = candidate;
        best_report = std::move(report);
        improved = true;
        break;  // Restart from the smaller case.
      }
    }
  }
  return best_report;
}

}  // namespace approxmem::testing
