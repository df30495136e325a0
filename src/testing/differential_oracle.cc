#include "testing/differential_oracle.h"

#include <algorithm>
#include <sstream>

#include "common/hash.h"
#include "core/engine.h"
#include "testing/golden.h"

namespace approxmem::testing {

namespace {

void Fail(OracleReport& report, const std::string& invariant,
          const std::string& detail) {
  report.failures.push_back(OracleFailure{invariant, detail});
}

void DigestU64(uint64_t& digest, uint64_t value) {
  digest = Fnv1a64Word(digest, value);
}

void DigestVec(uint64_t& digest, const std::vector<uint32_t>& values) {
  DigestU64(digest, values.size());
  if (!values.empty()) {
    digest = Fnv1a64(values.data(), values.size() * sizeof(uint32_t), digest);
  }
}

}  // namespace

std::string OracleCase::Name() const {
  std::ostringstream out;
  out << algorithm.Name() << "/" << ShapeName(shape) << " n=" << n
      << " T=" << paper_t << " seed=" << seed;
  if (sort_threads != 1) out << " st=" << sort_threads;
  return out.str();
}

std::string OracleReport::FailureSummary() const {
  std::ostringstream out;
  out << oracle_case.Name() << ":";
  for (const OracleFailure& failure : failures) {
    out << " [" << failure.invariant << "] " << failure.detail;
  }
  return out.str();
}

OracleReport RunDifferentialOracle(const OracleCase& oracle_case,
                                   const OracleOptions& options) {
  OracleReport report;
  report.oracle_case = oracle_case;
  report.digest = Fnv1a64(nullptr, 0);
  DigestU64(report.digest, oracle_case.seed);
  DigestU64(report.digest, oracle_case.n);

  const double t = TFromPaperLabel(oracle_case.paper_t);
  const std::vector<uint32_t> input =
      MakeInput(oracle_case.shape, oracle_case.n, oracle_case.seed);

  core::EngineOptions engine_options;
  engine_options.calibration_trials = options.calibration_trials;
  engine_options.seed = oracle_case.seed;
  engine_options.shared_calibration = options.shared_calibration;
  engine_options.sort_threads = oracle_case.sort_threads;
  if (options.injector != nullptr) {
    engine_options.fault_hook = options.injector;
  }
  core::ApproxSortEngine engine(engine_options);

  std::vector<uint32_t> final_keys;
  std::vector<uint32_t> final_ids;
  const auto outcome = engine.SortApproxRefine(
      input, oracle_case.algorithm, t, &final_keys, &final_ids);
  if (!outcome.ok()) {
    Fail(report, "engine-status", outcome.status().ToString());
    report.ok = false;
    return report;
  }
  report.rem_estimate = outcome->refine.rem_estimate;
  report.write_reduction = outcome->write_reduction;

  if (!outcome->refine.verified()) {
    Fail(report, "refine-verified",
         "the pipeline's own output verification failed");
  }

  const std::vector<GoldenRecord> golden = GoldenStableSort(input);
  if (final_keys.size() != golden.size()) {
    std::ostringstream detail;
    detail << "output size " << final_keys.size() << " != " << golden.size();
    Fail(report, "golden-keys", detail.str());
  } else {
    for (size_t i = 0; i < golden.size(); ++i) {
      if (final_keys[i] != golden[i].key) {
        std::ostringstream detail;
        detail << "keys[" << i << "] = " << final_keys[i]
               << ", golden = " << golden[i].key;
        Fail(report, "golden-keys", detail.str());
        break;
      }
    }
  }

  if (!IsIdPermutation(final_ids, input.size())) {
    Fail(report, "ids-permutation",
         "final IDs are not a permutation of 0..n-1");
  } else if (!KeysMatchIds(input, final_keys, final_ids)) {
    Fail(report, "keys-match-ids",
         "some finalKey[i] != input[finalID[i]]");
  }

  const mlc::MlcConfig& mlc = engine.memory().mlc_config();
  const struct {
    const char* name;
    const approx::MemoryStats& stats;
  } precise_ledgers[] = {
      {"baseline.keys", outcome->baseline.keys},
      {"baseline.ids", outcome->baseline.ids},
      {"refine.prep_precise", outcome->refine.prep_precise},
      {"refine.sort_precise", outcome->refine.sort_precise},
      {"refine.refine_precise", outcome->refine.refine_precise},
  };
  for (const auto& ledger : precise_ledgers) {
    if (!PreciseCostsConserve(ledger.stats, mlc)) {
      std::ostringstream detail;
      detail << ledger.name << ": writes=" << ledger.stats.word_writes
             << " cost=" << ledger.stats.write_cost
             << " reads=" << ledger.stats.word_reads
             << " read_cost=" << ledger.stats.read_cost
             << " corrupted=" << ledger.stats.corrupted_writes;
      Fail(report, "precise-cost-accounting", detail.str());
    }
  }

  if (oracle_case.paper_t == 0 && options.injector == nullptr) {
    std::vector<uint32_t> approx_output;
    const auto only = engine.SortApproxOnly(input, oracle_case.algorithm, t,
                                            &approx_output);
    if (!only.ok()) {
      Fail(report, "t0-bit-identical", only.status().ToString());
    } else if (only->approx_stats.corrupted_writes != 0) {
      std::ostringstream detail;
      detail << only->approx_stats.corrupted_writes
             << " corrupted writes at the precise operating point";
      Fail(report, "t0-bit-identical", detail.str());
    } else {
      for (size_t i = 0; i < golden.size(); ++i) {
        if (approx_output[i] != golden[i].key) {
          std::ostringstream detail;
          detail << "approx-only[" << i << "] = " << approx_output[i]
                 << ", golden = " << golden[i].key;
          Fail(report, "t0-bit-identical", detail.str());
          break;
        }
      }
    }
    DigestVec(report.digest, approx_output);
  }

  DigestVec(report.digest, final_keys);
  DigestVec(report.digest, final_ids);
  DigestU64(report.digest, report.rem_estimate);
  DigestU64(report.digest, report.failures.size());
  report.ok = report.failures.empty();
  return report;
}

}  // namespace approxmem::testing
