#include "sort/sort_common.h"

#include <algorithm>
#include <string>
#include <utility>

#include <gtest/gtest.h>

#include "approx/approx_memory.h"
#include "common/random.h"
#include "refine/cost_model.h"
#include "sort/radix_lsd.h"
#include "sort/radix_msd.h"

namespace approxmem::sort {
namespace {

class SortFixture : public ::testing::Test {
 protected:
  SortFixture() : memory_(MakeOptions()) {}

  static approx::ApproxMemory::Options MakeOptions() {
    approx::ApproxMemory::Options options;
    options.calibration_trials = 20000;
    options.seed = 5;
    return options;
  }

  // Sorts `keys` on precise memory with `algorithm`; returns output and
  // checks ids follow their keys.
  std::vector<uint32_t> SortPrecise(const std::vector<uint32_t>& keys,
                                    const AlgorithmId& algorithm,
                                    bool with_ids) {
    approx::ApproxArrayU32 key_array = memory_.NewPreciseArray(keys.size());
    key_array.Store(keys);
    approx::ApproxArrayU32 id_array =
        memory_.NewPreciseArray(with_ids ? keys.size() : 0);
    for (size_t i = 0; i < keys.size() && with_ids; ++i) {
      id_array.Set(i, static_cast<uint32_t>(i));
    }
    SortSpec spec;
    spec.keys = &key_array;
    spec.ids = with_ids ? &id_array : nullptr;
    spec.alloc_key_buffer = [this](size_t n) {
      return memory_.NewPreciseArray(n);
    };
    spec.alloc_id_buffer = spec.alloc_key_buffer;
    Rng rng(7);
    const Status status = RunSort(spec, algorithm, rng);
    EXPECT_TRUE(status.ok()) << status.ToString();

    const std::vector<uint32_t> out = key_array.Snapshot();
    if (with_ids) {
      const std::vector<uint32_t> ids = id_array.Snapshot();
      for (size_t i = 0; i < keys.size(); ++i) {
        EXPECT_EQ(out[i], keys[ids[i]]) << "id does not follow key at " << i;
      }
    }
    return out;
  }

  approx::ApproxMemory memory_;
};

TEST_F(SortFixture, AllAlgorithmsSortRandomInput) {
  Rng rng(1);
  const std::vector<uint32_t> keys = UniformKeys(3000, rng);
  std::vector<uint32_t> expected = keys;
  std::sort(expected.begin(), expected.end());
  for (const AlgorithmId& algorithm : StudyAlgorithms()) {
    EXPECT_EQ(SortPrecise(keys, algorithm, /*with_ids=*/false), expected)
        << algorithm.Name();
  }
  for (int bits = 3; bits <= 6; ++bits) {
    EXPECT_EQ(SortPrecise(keys, {SortKind::kLsdHistogram, bits}, false),
              expected);
    EXPECT_EQ(SortPrecise(keys, {SortKind::kMsdHistogram, bits}, false),
              expected);
  }
}

TEST_F(SortFixture, AllAlgorithmsCarryPayload) {
  Rng rng(2);
  const std::vector<uint32_t> keys = UniformKeys(1500, rng);
  std::vector<uint32_t> expected = keys;
  std::sort(expected.begin(), expected.end());
  for (const AlgorithmId& algorithm : HeadlineAlgorithms()) {
    EXPECT_EQ(SortPrecise(keys, algorithm, /*with_ids=*/true), expected)
        << algorithm.Name();
  }
}

TEST_F(SortFixture, EdgeCaseInputs) {
  const std::vector<std::vector<uint32_t>> inputs = {
      {},                          // Empty.
      {42},                        // Singleton.
      {2, 1},                      // Pair.
      {7, 7, 7, 7, 7, 7},          // All equal.
      {5, 4, 3, 2, 1, 0},          // Reversed.
      {0, 1, 2, 3, 4, 5},          // Already sorted.
      {0xFFFFFFFF, 0, 0xFFFFFFFF, 1},  // Extremes and duplicates.
  };
  for (const auto& input : inputs) {
    std::vector<uint32_t> expected = input;
    std::sort(expected.begin(), expected.end());
    for (const AlgorithmId& algorithm : StudyAlgorithms()) {
      EXPECT_EQ(SortPrecise(input, algorithm, /*with_ids=*/true), expected)
          << algorithm.Name() << " on input size " << input.size();
    }
  }
}

TEST_F(SortFixture, ValidateSpecRejectsMissingPieces) {
  SortSpec empty;
  EXPECT_FALSE(ValidateSpec(empty, false).ok());

  approx::ApproxArrayU32 keys = memory_.NewPreciseArray(4);
  approx::ApproxArrayU32 ids = memory_.NewPreciseArray(3);  // Wrong size.
  SortSpec mismatched;
  mismatched.keys = &keys;
  mismatched.ids = &ids;
  EXPECT_FALSE(ValidateSpec(mismatched, false).ok());

  SortSpec no_buffers;
  no_buffers.keys = &keys;
  EXPECT_FALSE(ValidateSpec(no_buffers, true).ok());
  EXPECT_TRUE(ValidateSpec(no_buffers, false).ok());
}

TEST_F(SortFixture, RadixRejectsBadBitWidths) {
  approx::ApproxArrayU32 keys = memory_.NewPreciseArray(4);
  SortSpec spec;
  spec.keys = &keys;
  spec.alloc_key_buffer = [this](size_t n) {
    return memory_.NewPreciseArray(n);
  };
  using RadixEntry = Status (*)(SortSpec&, int);
  const std::pair<const char*, RadixEntry> radix_sorts[] = {
      {"lsd", LsdRadixSort},
      {"msd", MsdRadixSort},
      {"hlsd", LsdHistogramSort},
      {"hmsd", MsdHistogramSort}};
  for (const auto& [name, entry] : radix_sorts) {
    for (const int bits : {0, 17}) {
      EXPECT_EQ(entry(spec, bits).code(), StatusCode::kInvalidArgument)
          << name << " bits=" << bits;
    }
  }
}

TEST_F(SortFixture, AlgorithmNamesMatchPaperLabels) {
  EXPECT_EQ((AlgorithmId{SortKind::kQuicksort, 0}).Name(), "Quicksort");
  EXPECT_EQ((AlgorithmId{SortKind::kMergesort, 0}).Name(), "Mergesort");
  EXPECT_EQ((AlgorithmId{SortKind::kLsdRadix, 3}).Name(), "3-bit LSD");
  EXPECT_EQ((AlgorithmId{SortKind::kMsdRadix, 6}).Name(), "6-bit MSD");
  EXPECT_EQ((AlgorithmId{SortKind::kLsdHistogram, 4}).Name(),
            "4-bit hist-LSD");
}

TEST(ParseAlgorithmTest, EveryListedNameParses) {
  // The names approxmem_cli's usage string lists: quicksort mergesort
  // lsd3..lsd6 msd3..msd6 hlsd3..6 hmsd3..6.
  std::vector<std::pair<std::string, AlgorithmId>> listed = {
      {"quicksort", {SortKind::kQuicksort, 0}},
      {"mergesort", {SortKind::kMergesort, 0}}};
  for (int bits = 3; bits <= 6; ++bits) {
    const std::string width = std::to_string(bits);
    listed.push_back({"lsd" + width, {SortKind::kLsdRadix, bits}});
    listed.push_back({"msd" + width, {SortKind::kMsdRadix, bits}});
    listed.push_back({"hlsd" + width, {SortKind::kLsdHistogram, bits}});
    listed.push_back({"hmsd" + width, {SortKind::kMsdHistogram, bits}});
  }
  for (const auto& [name, expected] : listed) {
    const StatusOr<AlgorithmId> parsed = ParseAlgorithm(name);
    ASSERT_TRUE(parsed.ok()) << name << ": " << parsed.status().ToString();
    EXPECT_EQ(parsed->kind, expected.kind) << name;
    EXPECT_EQ(parsed->radix_bits, expected.radix_bits) << name;
  }
}

TEST(ParseAlgorithmTest, RejectsMalformedNames) {
  for (const char* name : {"", "lsd", "lsd0", "foo", "lsdx3", "lsd33"}) {
    EXPECT_EQ(ParseAlgorithm(name).status().code(),
              StatusCode::kInvalidArgument)
        << '"' << name << '"';
  }
}

TEST_F(SortFixture, WriteCountsTrackAlphaModel) {
  Rng rng(4);
  const size_t n = 4096;
  const std::vector<uint32_t> keys = UniformKeys(n, rng);
  for (const AlgorithmId& algorithm : HeadlineAlgorithms()) {
    approx::ApproxArrayU32 key_array = memory_.NewPreciseArray(n);
    key_array.Store(keys);
    key_array.ResetStats();
    approx::MemoryStats scratch;
    SortSpec spec;
    spec.keys = &key_array;
    spec.alloc_key_buffer = [this, &scratch](size_t size) {
      approx::ApproxArrayU32 buffer = memory_.NewPreciseArray(size);
      buffer.SetStatsSink(&scratch);
      return buffer;
    };
    Rng sort_rng(8);
    ASSERT_TRUE(RunSort(spec, algorithm, sort_rng).ok());
    const double measured = static_cast<double>(
        key_array.stats().word_writes + scratch.word_writes);
    const double predicted = refine::AlphaWrites(algorithm, n);
    EXPECT_GT(measured, 0.5 * predicted) << algorithm.Name();
    EXPECT_LT(measured, 2.0 * predicted) << algorithm.Name();
  }
}

TEST_F(SortFixture, HistogramRadixWritesLessThanQueueRadix) {
  Rng rng(5);
  const size_t n = 8192;
  const std::vector<uint32_t> keys = UniformKeys(n, rng);
  auto count_writes = [&](const AlgorithmId& algorithm) {
    approx::ApproxArrayU32 key_array = memory_.NewPreciseArray(n);
    key_array.Store(keys);
    key_array.ResetStats();
    approx::MemoryStats scratch;
    SortSpec spec;
    spec.keys = &key_array;
    spec.alloc_key_buffer = [this, &scratch](size_t size) {
      approx::ApproxArrayU32 buffer = memory_.NewPreciseArray(size);
      buffer.SetStatsSink(&scratch);
      return buffer;
    };
    Rng sort_rng(9);
    EXPECT_TRUE(RunSort(spec, algorithm, sort_rng).ok());
    return key_array.stats().word_writes + scratch.word_writes;
  };
  // Appendix B: histogram-based partitioning halves the writes per pass.
  EXPECT_LT(count_writes({SortKind::kLsdHistogram, 6}),
            count_writes({SortKind::kLsdRadix, 6}));
  EXPECT_LT(count_writes({SortKind::kMsdHistogram, 6}),
            count_writes({SortKind::kMsdRadix, 6}));
}

}  // namespace
}  // namespace approxmem::sort
