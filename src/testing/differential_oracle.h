// Differential oracle: one engine workload vs. the precise golden model.
//
// The oracle runs core::ApproxSortEngine::SortApproxRefine on a generated
// input and checks every invariant the paper's mechanism promises,
// regardless of how much the approximate stage was corrupted (including by
// an attached FaultInjector):
//
//   refine-verified          the pipeline's own verification passed;
//   golden-keys              final keys == std::stable_sort of the input;
//   ids-permutation          final IDs are a permutation of 0..n-1;
//   keys-match-ids           finalKey[i] == input[finalID[i]];
//   precise-cost-accounting  every precise-domain ledger costs exactly
//                            (writes x 1 us + reads x 50 ns), uncorrupted;
//   t0-bit-identical         at the precise operating point (and with no
//                            injector attached) the approx-only sort output
//                            already equals the golden keys with zero
//                            corrupted writes.
//
// Faults injected into the *approximate* domain must never produce a
// failure (that is the refine guarantee under test); faults injected into
// the *precise* domain must produce one (the oracle's own negative test).
#ifndef APPROXMEM_TESTING_DIFFERENTIAL_ORACLE_H_
#define APPROXMEM_TESTING_DIFFERENTIAL_ORACLE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "mlc/calibration.h"
#include "sort/sort_common.h"
#include "testing/fault_injection.h"
#include "testing/generators.h"

namespace approxmem::testing {

/// One oracle case: everything needed to reproduce a run, as a tuple the
/// shrinker can minimize.
struct OracleCase {
  uint64_t seed = 1;
  size_t n = 256;
  /// Paper T label: 0 (precise point), 30, 55, 100, ... (t = label/1000).
  int paper_t = 55;
  sort::AlgorithmId algorithm;
  InputShape shape = InputShape::kUniform;
  /// Intra-sort workers for the striped radix passes (1 = serial). Any
  /// value must give the same verdict and digest.
  int sort_threads = 1;

  /// "quicksort/uniform n=256 T=55 seed=1" — paste-able repro label
  /// (annotated with st= when sort_threads is not 1).
  std::string Name() const;
};

struct OracleOptions {
  /// Monte-Carlo trials per calibration; small values keep the suite fast.
  uint64_t calibration_trials = 5000;
  /// Share one cache across many cases so each T calibrates once.
  std::shared_ptr<mlc::CalibrationCache> shared_calibration;
  /// Optional fault injector attached to the engine. Not owned.
  FaultInjector* injector = nullptr;
};

/// One violated invariant.
struct OracleFailure {
  std::string invariant;  // One of the names in the header comment.
  std::string detail;
};

struct OracleReport {
  OracleCase oracle_case;
  bool ok = false;
  std::vector<OracleFailure> failures;
  /// FNV-1a digest of the outputs and verdict; equal digests across runs
  /// and thread counts demonstrate determinism.
  uint64_t digest = 0;
  /// Ledger extracts for reporting.
  size_t rem_estimate = 0;
  double write_reduction = 0.0;

  std::string FailureSummary() const;
};

/// Runs one case against the golden model. Deterministic in (case,
/// options, injector plan).
OracleReport RunDifferentialOracle(const OracleCase& oracle_case,
                                   const OracleOptions& options);

}  // namespace approxmem::testing

#endif  // APPROXMEM_TESTING_DIFFERENTIAL_ORACLE_H_
