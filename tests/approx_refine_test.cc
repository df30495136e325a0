#include "refine/approx_refine.h"

#include <algorithm>
#include <cstring>
#include <memory>
#include <string>

#include <gtest/gtest.h>

#include "approx/approx_memory.h"
#include "common/thread_pool.h"
#include "core/workload.h"

namespace approxmem::refine {
namespace {

class RefineFixture : public ::testing::Test {
 protected:
  RefineFixture() : memory_(MakeOptions()) {}

  static approx::ApproxMemory::Options MakeOptions() {
    approx::ApproxMemory::Options options;
    options.calibration_trials = 20000;
    options.seed = 21;
    return options;
  }

  RefineOptions MakeRefineOptions(const sort::AlgorithmId& algorithm,
                                  double t) {
    RefineOptions options;
    options.algorithm = algorithm;
    options.approx_alloc = [this, t](size_t n) {
      return memory_.NewApproxArray(n, t);
    };
    options.precise_alloc = [this](size_t n) {
      return memory_.NewPreciseArray(n);
    };
    return options;
  }

  approx::ApproxMemory memory_;
};

TEST_F(RefineFixture, ProducesExactlySortedOutput) {
  const auto keys = core::MakeKeys(core::WorkloadKind::kUniform, 20000, 3);
  for (const sort::AlgorithmId& algorithm : sort::HeadlineAlgorithms()) {
    std::vector<uint32_t> out_keys;
    std::vector<uint32_t> out_ids;
    const auto report = ApproxRefineSort(
        keys, MakeRefineOptions(algorithm, 0.08), &out_keys, &out_ids);
    ASSERT_TRUE(report.ok()) << report.status().ToString();
    EXPECT_TRUE(report->verified()) << algorithm.Name();
    ASSERT_EQ(out_keys.size(), keys.size());
    EXPECT_TRUE(std::is_sorted(out_keys.begin(), out_keys.end()));
    for (size_t i = 0; i < out_keys.size(); ++i) {
      EXPECT_EQ(out_keys[i], keys[out_ids[i]]);
    }
  }
}

TEST_F(RefineFixture, VerifiedEvenAtWorstCorruption) {
  const auto keys = core::MakeKeys(core::WorkloadKind::kUniform, 5000, 4);
  const auto report = ApproxRefineSort(
      keys,
      MakeRefineOptions(sort::AlgorithmId{sort::SortKind::kMergesort, 0},
                        0.124),
      nullptr, nullptr);
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report->verified());
  // Rem~ should be near n for a chaotic output.
  EXPECT_GT(report->rem_estimate, keys.size() / 2);
}

TEST_F(RefineFixture, EdgeCaseSizes) {
  for (size_t n : {0u, 1u, 2u, 3u}) {
    const auto keys = core::MakeKeys(core::WorkloadKind::kUniform, n, 5);
    std::vector<uint32_t> out_keys;
    const auto report = ApproxRefineSort(
        keys,
        MakeRefineOptions(sort::AlgorithmId{sort::SortKind::kQuicksort, 0},
                          0.055),
        &out_keys, nullptr);
    ASSERT_TRUE(report.ok()) << "n=" << n;
    EXPECT_TRUE(report->verified()) << "n=" << n;
    EXPECT_EQ(out_keys.size(), n);
    EXPECT_TRUE(std::is_sorted(out_keys.begin(), out_keys.end()));
  }
}

TEST_F(RefineFixture, DuplicateKeysAreHandled) {
  const auto keys = core::MakeKeys(core::WorkloadKind::kAllEqual, 2000, 6);
  const auto report = ApproxRefineSort(
      keys,
      MakeRefineOptions(sort::AlgorithmId{sort::SortKind::kLsdRadix, 6},
                        0.07),
      nullptr, nullptr);
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report->verified());
}

TEST_F(RefineFixture, RemEstimateTracksExactRem) {
  const auto keys = core::MakeKeys(core::WorkloadKind::kUniform, 50000, 7);
  const auto report = ApproxRefineSort(
      keys,
      MakeRefineOptions(sort::AlgorithmId{sort::SortKind::kQuicksort, 0},
                        0.065),
      nullptr, nullptr);
  ASSERT_TRUE(report.ok());
  // The heuristic finds a superset of the disorder: Rem~ >= exact Rem, and
  // within a small constant factor on nearly sorted sequences.
  EXPECT_GE(report->rem_estimate, report->approx_sortedness.rem);
  EXPECT_GT(report->approx_sortedness.rem, 0u);
  EXPECT_LT(report->rem_estimate, 10 * report->approx_sortedness.rem + 50);
}

TEST_F(RefineFixture, NoCorruptionMeansNoRemAndCheapRefine) {
  const auto keys = core::MakeKeys(core::WorkloadKind::kUniform, 10000, 8);
  const auto report = ApproxRefineSort(
      keys,
      MakeRefineOptions(sort::AlgorithmId{sort::SortKind::kQuicksort, 0},
                        0.03),
      nullptr, nullptr);
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->rem_estimate, 0u);
  // Refine writes = 2n (outputs) when Rem~ = 0.
  EXPECT_EQ(report->RefineWriteOps(), 2 * keys.size());
}

TEST_F(RefineFixture, RefineWriteBudgetStaysNearLowerBound) {
  // Section 4.2: on a nearly sorted approx output the refine stage performs
  // fewer than ~3n precise writes — close to the 2n lower bound.
  const auto keys = core::MakeKeys(core::WorkloadKind::kUniform, 30000, 9);
  const auto report = ApproxRefineSort(
      keys,
      MakeRefineOptions(sort::AlgorithmId{sort::SortKind::kQuicksort, 0},
                        0.055),
      nullptr, nullptr);
  ASSERT_TRUE(report.ok());
  EXPECT_GE(report->RefineWriteOps(), 2 * keys.size());
  EXPECT_LT(report->RefineWriteOps(), 3 * keys.size());
}

TEST_F(RefineFixture, StageCostsDecompose) {
  const auto keys = core::MakeKeys(core::WorkloadKind::kUniform, 8000, 10);
  const auto report = ApproxRefineSort(
      keys,
      MakeRefineOptions(sort::AlgorithmId{sort::SortKind::kQuicksort, 0},
                        0.055),
      nullptr, nullptr);
  ASSERT_TRUE(report.ok());
  // Approx preparation writes exactly n words into approximate memory.
  EXPECT_EQ(report->prep_approx.word_writes, keys.size());
  EXPECT_EQ(report->prep_precise.word_reads, keys.size());
  EXPECT_EQ(report->prep_precise.word_writes, 0u);
  // The total equals the sum of the parts.
  EXPECT_NEAR(report->TotalWriteCost(),
              report->ApproxStageWriteCost() + report->RefineStageWriteCost(),
              1e-6);
  EXPECT_GT(report->sort_approx.word_writes, 0u);
  EXPECT_GT(report->sort_precise.word_writes, 0u);
}

TEST_F(RefineFixture, MissingAllocatorsRejected) {
  RefineOptions options;
  options.algorithm = sort::AlgorithmId{sort::SortKind::kQuicksort, 0};
  const auto report = ApproxRefineSort({1, 2, 3}, options, nullptr, nullptr);
  EXPECT_FALSE(report.ok());
  EXPECT_EQ(report.status().code(), StatusCode::kInvalidArgument);
}

TEST(VerifyRefineOutputTest, CleanOutputReportsNone) {
  const std::vector<uint32_t> input = {30, 10, 20};
  const VerificationReport report =
      VerifyRefineOutput(input, {10, 20, 30}, {1, 2, 0});
  EXPECT_TRUE(report.ok());
  EXPECT_EQ(report.failure, VerifyFailureKind::kNone);
  EXPECT_EQ(report.violation_count, 0u);
  EXPECT_EQ(report.ToString(), "ok");
}

TEST(VerifyRefineOutputTest, CategorizesOrderViolation) {
  const std::vector<uint32_t> input = {30, 10, 20};
  const VerificationReport report =
      VerifyRefineOutput(input, {10, 30, 20}, {1, 0, 2});
  EXPECT_FALSE(report.ok());
  EXPECT_EQ(report.failure, VerifyFailureKind::kOrderViolation);
  EXPECT_EQ(report.first_violation, 2u);
  EXPECT_GE(report.violation_count, 1u);
  EXPECT_NE(report.ToString().find("ORDER_VIOLATION"), std::string::npos);
}

TEST(VerifyRefineOutputTest, CategorizesDuplicatedIds) {
  const std::vector<uint32_t> input = {30, 10, 20};
  // Keys are sorted but record 1 was emitted twice and record 2 lost.
  const VerificationReport report =
      VerifyRefineOutput(input, {10, 10, 30}, {1, 1, 0});
  EXPECT_FALSE(report.ok());
  EXPECT_EQ(report.failure, VerifyFailureKind::kIdPermutationLoss);
  EXPECT_GE(report.violation_count, 1u);
}

TEST(VerifyRefineOutputTest, CategorizesOutOfRangeIds) {
  const std::vector<uint32_t> input = {30, 10, 20};
  const VerificationReport report =
      VerifyRefineOutput(input, {10, 20, 30}, {1, 2, 7});
  EXPECT_FALSE(report.ok());
  EXPECT_EQ(report.failure, VerifyFailureKind::kIdPermutationLoss);
}

TEST(VerifyRefineOutputTest, CategorizesKeyIdMismatch) {
  const std::vector<uint32_t> input = {30, 10, 20};
  // IDs are a valid permutation but the key written for record 0 is wrong.
  const VerificationReport report =
      VerifyRefineOutput(input, {10, 20, 31}, {1, 2, 0});
  EXPECT_FALSE(report.ok());
  EXPECT_EQ(report.failure, VerifyFailureKind::kKeyIdMismatch);
  EXPECT_EQ(report.first_violation, 2u);
}

TEST(VerifyRefineOutputTest, LostConservationIsAPermutationLoss) {
  const std::vector<uint32_t> input = {30, 10, 20};
  const VerificationReport report = VerifyRefineOutput(
      input, {10, 20, 30}, {1, 2, 0}, /*merge_conserved=*/false);
  EXPECT_FALSE(report.ok());
  EXPECT_EQ(report.failure, VerifyFailureKind::kIdPermutationLoss);
  EXPECT_EQ(report.first_violation, input.size());
}

TEST(VerifyRefineOutputTest, PooledMatchesSerial) {
  struct Case {
    std::string name;
    std::vector<uint32_t> input, keys, ids;
    bool merge_conserved = true;
  };
  std::vector<Case> cases;
  // Clean outputs: random, sorted, reversed and all-equal inputs, and
  // every size below 8.
  Rng rng(17);
  const auto sorted_output = [](const std::string& name,
                                const std::vector<uint32_t>& input) {
    Case c{name, input, {}, {}};
    c.ids.resize(input.size());
    for (size_t i = 0; i < input.size(); ++i) {
      c.ids[i] = static_cast<uint32_t>(i);
    }
    std::stable_sort(c.ids.begin(), c.ids.end(),
                     [&input](uint32_t a, uint32_t b) {
                       return input[a] < input[b];
                     });
    for (const uint32_t id : c.ids) c.keys.push_back(input[id]);
    return c;
  };
  std::vector<uint32_t> random(5000);
  for (auto& v : random) v = static_cast<uint32_t>(rng.UniformInt(3000));
  std::vector<uint32_t> ascending = random;
  std::sort(ascending.begin(), ascending.end());
  cases.push_back(sorted_output("random", random));
  cases.push_back(sorted_output("sorted", ascending));
  cases.push_back(sorted_output(
      "reversed",
      std::vector<uint32_t>(ascending.rbegin(), ascending.rend())));
  cases.push_back(sorted_output("all-equal", std::vector<uint32_t>(777, 9)));
  for (size_t n = 0; n < 8; ++n) {
    std::vector<uint32_t> tiny(n);
    for (auto& v : tiny) v = static_cast<uint32_t>(rng.UniformInt(3));
    cases.push_back(sorted_output("n=" + std::to_string(n), tiny));
  }
  // Every failure kind, planted in the random output, alone and together.
  const Case base = cases[0];
  const auto broken = [&base](const std::string& name, auto&& damage) {
    Case c = base;
    c.name = name;
    damage(c);
    return c;
  };
  cases.push_back(broken("order", [](Case& c) {
    std::swap(c.keys[10], c.keys[4000]);
    std::swap(c.ids[10], c.ids[4000]);
  }));
  cases.push_back(broken("duplicate id", [](Case& c) {
    c.ids[2500] = c.ids[100];
    c.keys[2500] = c.keys[100];
  }));
  cases.push_back(broken("out-of-range id", [](Case& c) {
    c.ids[4999] = 5000;
  }));
  cases.push_back(broken("key mismatch", [](Case& c) {
    c.keys[1234] ^= 1;
  }));
  cases.push_back(broken("not conserved",
                         [](Case& c) { c.merge_conserved = false; }));
  cases.push_back(broken("short output", [](Case& c) {
    c.keys.pop_back();
    c.ids.pop_back();
  }));
  cases.push_back(broken("short ids", [](Case& c) { c.ids.pop_back(); }));
  cases.push_back(broken("every kind", [](Case& c) {
    std::swap(c.keys[7], c.keys[8]);
    c.ids[50] = c.ids[60];
    c.ids[70] = 99999;
    c.keys[4321] += 1;
    c.merge_conserved = false;
  }));
  cases.push_back(broken("last element", [](Case& c) {
    c.keys[4999] = 0;
  }));
  // Duplicates that break nothing else: equal keys keep the order and the
  // key match, near each other (one stripe) and far apart (two stripes).
  for (const size_t far : {11, 700}) {
    Case c = cases[3];
    c.name = "duplicate among equal keys at " + std::to_string(far);
    c.ids[far] = c.ids[10];
    cases.push_back(c);
  }

  ThreadPool pool1(1);
  ThreadPool pool2(2);
  ThreadPool pool4(4);
  ThreadPool pool8(8);
  size_t failures = 0;
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    const VerificationReport serial =
        VerifyRefineOutput(c.input, c.keys, c.ids, c.merge_conserved);
    failures += !serial.ok();
    for (ThreadPool* pool : {&pool1, &pool2, &pool4, &pool8}) {
      SCOPED_TRACE("threads=" + std::to_string(pool->thread_count()));
      const VerificationReport pooled = VerifyRefineOutput(
          c.input, c.keys, c.ids, c.merge_conserved, pool);
      EXPECT_EQ(pooled.failure, serial.failure);
      EXPECT_EQ(pooled.first_violation, serial.first_violation);
      EXPECT_EQ(pooled.violation_count, serial.violation_count);
    }
  }
  // Every broken case fails, and no clean one does.
  EXPECT_EQ(failures, 11u);
}

TEST(VerifyRefineOutputTest, EveryKindHasAName) {
  EXPECT_EQ(VerifyFailureKindName(VerifyFailureKind::kNone), "NONE");
  EXPECT_EQ(VerifyFailureKindName(VerifyFailureKind::kOrderViolation),
            "ORDER_VIOLATION");
  EXPECT_EQ(VerifyFailureKindName(VerifyFailureKind::kIdPermutationLoss),
            "ID_PERMUTATION_LOSS");
  EXPECT_EQ(VerifyFailureKindName(VerifyFailureKind::kKeyIdMismatch),
            "KEY_ID_MISMATCH");
}

TEST_F(RefineFixture, StageSplitMatchesMonolithicRun) {
  // RunApproxStage + RunRefineStage consume the same RNG streams as the
  // one-shot ApproxRefineSort, so costs and outputs are bit-identical —
  // and a second refine run over the same state replays the first exactly.
  const auto keys = core::MakeKeys(core::WorkloadKind::kUniform, 8000, 13);
  const sort::AlgorithmId algorithm{sort::SortKind::kQuicksort, 0};

  std::vector<uint32_t> mono_keys;
  std::vector<uint32_t> mono_ids;
  approx::ApproxMemory mono_memory(MakeOptions());
  RefineOptions mono_options;
  mono_options.algorithm = algorithm;
  mono_options.approx_alloc = [&mono_memory](size_t n) {
    return mono_memory.NewApproxArray(n, 0.055);
  };
  mono_options.precise_alloc = [&mono_memory](size_t n) {
    return mono_memory.NewPreciseArray(n);
  };
  const auto mono =
      ApproxRefineSort(keys, mono_options, &mono_keys, &mono_ids);
  ASSERT_TRUE(mono.ok());

  const RefineOptions split_options =
      MakeRefineOptions(algorithm, 0.055);
  ApproxStageState state;
  ASSERT_TRUE(RunApproxStage(keys, split_options, &state).ok());
  ASSERT_TRUE(state.ready());

  RefineReport first;
  std::vector<uint32_t> first_keys;
  std::vector<uint32_t> first_ids;
  ASSERT_TRUE(RunRefineStage(state, split_options, &first, &first_keys,
                             &first_ids)
                  .ok());
  EXPECT_TRUE(first.verified());
  EXPECT_EQ(first_keys, mono_keys);
  EXPECT_EQ(first_ids, mono_ids);
  EXPECT_DOUBLE_EQ(first.TotalWriteCost(), mono->TotalWriteCost());
  EXPECT_EQ(first.rem_estimate, mono->rem_estimate);

  RefineReport second;
  std::vector<uint32_t> second_keys;
  std::vector<uint32_t> second_ids;
  ASSERT_TRUE(RunRefineStage(state, split_options, &second, &second_keys,
                             &second_ids)
                  .ok());
  EXPECT_EQ(second_keys, first_keys);
  EXPECT_EQ(second_ids, first_ids);
  // Each run closes its own ledger: equal refine costs, not doubled ones.
  EXPECT_EQ(second.refine_precise.word_writes,
            first.refine_precise.word_writes);
  EXPECT_DOUBLE_EQ(second.TotalWriteCost(), first.TotalWriteCost());
}

// Everything one approx-refine run outputs and reports.
struct RefineRun {
  std::vector<uint32_t> keys, ids;
  RefineReport report;
  size_t hook_events = 0;
};

// Counts the accesses it sees and changes nothing. (RecordingHook would
// keep every event: hundreds of MB for a hooked n = 50000 mergesort.)
struct CountingHook final : approx::MemoryFaultHook {
  uint32_t OnWrite(uint64_t /*address*/, bool /*precise_domain*/,
                   uint32_t /*intended*/, uint32_t stored) override {
    ++events;
    return stored;
  }
  uint32_t OnRead(uint64_t /*address*/, bool /*precise_domain*/,
                  uint32_t value) override {
    ++events;
    return value;
  }
  size_t events = 0;
};

// One ApproxRefineSort on a fresh memory. A pass-through hook changes no
// value but makes every array observed, which forces the refine steps onto
// their direct access policy; without it every precise array is plain and
// the steps count their reads.
RefineRun RunRefine(const std::vector<uint32_t>& keys,
                    const sort::AlgorithmId& algorithm, LisMode lis_mode,
                    double discount, bool hooked, ThreadPool* pool) {
  // One calibration for every run.
  static const auto calibration = std::make_shared<mlc::CalibrationCache>(
      mlc::MlcConfig{}, 5000, 23);
  CountingHook hook;
  approx::ApproxMemory::Options options;
  options.shared_calibration = calibration;
  options.seed = 23;
  options.sequential_write_discount = discount;
  if (hooked) options.fault_hook = &hook;
  approx::ApproxMemory memory(options);
  RefineOptions refine;
  refine.algorithm = algorithm;
  refine.lis_mode = lis_mode;
  refine.approx_alloc = [&memory](size_t n) {
    return memory.NewApproxArray(n, 0.055);
  };
  refine.precise_alloc = [&memory](size_t n) {
    return memory.NewPreciseArray(n);
  };
  refine.tuning.pool = pool;
  RefineRun run;
  const auto report = ApproxRefineSort(keys, refine, &run.keys, &run.ids);
  EXPECT_TRUE(report.ok());
  if (report.ok()) run.report = *report;
  run.hook_events = hook.events;
  return run;
}

void ExpectSameStats(const approx::MemoryStats& a,
                     const approx::MemoryStats& b) {
  static_assert(sizeof(approx::MemoryStats) == 8 * sizeof(uint64_t),
                "MemoryStats has padding; compare it field by field");
  EXPECT_EQ(std::memcmp(&a, &b, sizeof(approx::MemoryStats)), 0)
      << std::hexfloat << "write_cost " << a.write_cost << " vs "
      << b.write_cost << ", read_cost " << a.read_cost << " vs "
      << b.read_cost << ", pv " << a.pv_iterations << " vs "
      << b.pv_iterations;
}

void ExpectSameRun(const RefineRun& a, const RefineRun& b) {
  EXPECT_EQ(a.keys, b.keys);
  EXPECT_EQ(a.ids, b.ids);
  EXPECT_EQ(a.report.rem_estimate, b.report.rem_estimate);
  EXPECT_EQ(a.report.verified(), b.report.verified());
  EXPECT_EQ(a.report.approx_sortedness.rem, b.report.approx_sortedness.rem);
  EXPECT_EQ(a.report.approx_sortedness.inversions,
            b.report.approx_sortedness.inversions);
  ExpectSameStats(a.report.prep_approx, b.report.prep_approx);
  ExpectSameStats(a.report.prep_precise, b.report.prep_precise);
  ExpectSameStats(a.report.sort_approx, b.report.sort_approx);
  ExpectSameStats(a.report.sort_precise, b.report.sort_precise);
  ExpectSameStats(a.report.refine_precise, b.report.refine_precise);
}

TEST(ApproxRefineTest, CountedRefineMatchesDirectRefineBitForBit) {
  const sort::AlgorithmId algorithms[] = {
      {sort::SortKind::kLsdRadix, 3},
      {sort::SortKind::kMsdRadix, 3},
      {sort::SortKind::kQuicksort, 0},
      {sort::SortKind::kMergesort, 0}};
  ThreadPool pool1(1);
  ThreadPool pool2(2);
  ThreadPool pool4(4);
  ThreadPool pool8(8);
  size_t remainders = 0;
  for (const LisMode lis_mode : {LisMode::kHeuristic, LisMode::kExact}) {
    for (const auto& algorithm : algorithms) {
      for (const size_t n : {0, 1, 2, 1000, 50000}) {
        for (const double discount : {1.0, 0.8}) {
          SCOPED_TRACE(algorithm.Name() +
                       (lis_mode == LisMode::kExact ? " exact" : "") +
                       " n=" + std::to_string(n) +
                       " discount=" + std::to_string(discount));
          const std::vector<uint32_t> keys =
              core::MakeKeys(core::WorkloadKind::kUniform, n, 29);
          const RefineRun direct = RunRefine(keys, algorithm, lis_mode,
                                             discount, true, nullptr);
          const RefineRun counted = RunRefine(keys, algorithm, lis_mode,
                                              discount, false, nullptr);
          ExpectSameRun(counted, direct);
          // Not vacuous: the hook saw the run, and its output is sorted.
          EXPECT_TRUE(direct.report.verified());
          EXPECT_EQ(direct.hook_events > 0, n > 0);
          EXPECT_EQ(counted.hook_events, 0u);
          remainders += direct.report.rem_estimate > 0;
          if (n < 50000 || lis_mode != LisMode::kHeuristic ||
              discount != 1.0) {
            continue;
          }
          // The pooled sortedness measure, striped sorts and verification
          // leave the counted run unchanged at every pool size.
          for (ThreadPool* pool : {&pool1, &pool2, &pool4, &pool8}) {
            SCOPED_TRACE("threads=" + std::to_string(pool->thread_count()));
            ExpectSameRun(RunRefine(keys, algorithm, lis_mode, discount,
                                    false, pool),
                          direct);
          }
        }
      }
    }
  }
  // The merge interleaved REMID with the LIS in most configurations.
  EXPECT_GT(remainders, 16u);
}

TEST_F(RefineFixture, PreciseBaselineSortsAndCounts) {
  const auto keys = core::MakeKeys(core::WorkloadKind::kUniform, 4000, 11);
  const auto baseline = PreciseSortBaseline(
      keys, sort::AlgorithmId{sort::SortKind::kQuicksort, 0},
      [this](size_t n) { return memory_.NewPreciseArray(n); },
      /*sort_seed=*/13, /*with_ids=*/true);
  ASSERT_TRUE(baseline.ok());
  EXPECT_TRUE(baseline->verified);
  EXPECT_GT(baseline->keys.word_writes, 0u);
  // Keys and ids move together: write counts match.
  EXPECT_EQ(baseline->keys.word_writes, baseline->ids.word_writes);
}

TEST_F(RefineFixture, WriteReductionPositiveAtSweetSpot) {
  const auto keys = core::MakeKeys(core::WorkloadKind::kUniform, 100000, 12);
  const sort::AlgorithmId algorithm{sort::SortKind::kLsdRadix, 3};
  const auto refine_report = ApproxRefineSort(
      keys, MakeRefineOptions(algorithm, 0.055), nullptr, nullptr);
  ASSERT_TRUE(refine_report.ok());
  const auto baseline = PreciseSortBaseline(
      keys, algorithm,
      [this](size_t n) { return memory_.NewPreciseArray(n); }, 13, true);
  ASSERT_TRUE(baseline.ok());
  const double wr = WriteReduction(*refine_report, *baseline);
  EXPECT_GT(wr, 0.03);   // Positive at the paper's sweet spot.
  EXPECT_LT(wr, 0.20);   // But bounded by (1 - p)/2.
}

}  // namespace
}  // namespace approxmem::refine
