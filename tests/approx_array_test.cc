#include "approx/approx_array.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <string>
#include <string_view>
#include <tuple>
#include <utility>
#include <vector>

#include "approx/approx_memory.h"
#include "approx/fault_hook.h"
#include "approx/memory_backend.h"
#include "common/random.h"
#include "common/thread_pool.h"
#include "access_stream.h"

namespace approxmem::approx {
namespace {

ApproxMemory::Options DefaultOptions() {
  ApproxMemory::Options options;
  options.calibration_trials = 20000;
  options.seed = 11;
  return options;
}

TEST(ApproxArrayTest, PreciseArrayStoresExactly) {
  ApproxMemory memory(DefaultOptions());
  ApproxArrayU32 array = memory.NewPreciseArray(100);
  Rng rng(1);
  for (size_t i = 0; i < 100; ++i) {
    const uint32_t v = rng.NextU32();
    array.Set(i, v);
    EXPECT_EQ(array.Get(i), v);
  }
  EXPECT_EQ(array.DeviatingElements(), 0u);
  EXPECT_DOUBLE_EQ(array.ErrorRate(), 0.0);
  EXPECT_TRUE(array.precise());
  for (size_t i = 0; i < array.size(); ++i) EXPECT_FALSE(array.IsDeviating(i));
}

// Flips the low bit of every write to `target` while armed.
struct CorruptOneAddress final : MemoryFaultHook {
  uint32_t OnWrite(uint64_t address, bool /*precise_domain*/,
                   uint32_t /*intended*/, uint32_t stored) override {
    return armed && address == target ? stored ^ 1u : stored;
  }
  uint32_t OnRead(uint64_t /*address*/, bool /*precise_domain*/,
                  uint32_t value) override {
    return value;
  }
  uint64_t target = ~uint64_t{0};
  bool armed = true;
};

TEST(ApproxArrayTest, FaultHookDeviationOnPreciseArrayIsCounted) {
  ApproxMemory::Options options = DefaultOptions();
  CorruptOneAddress hook;
  options.fault_hook = &hook;
  ApproxMemory memory(options);
  ApproxArrayU32 array = memory.NewPreciseArray(16);
  ASSERT_TRUE(array.precise());
  hook.target = array.base_address() + 5 * 4;  // Element 5.
  for (size_t i = 0; i < array.size(); ++i) array.Set(i, 100 + i);
  EXPECT_EQ(array.DeviatingElements(), 1u);
  EXPECT_TRUE(array.IsDeviating(5));
  EXPECT_FALSE(array.IsDeviating(4));
  EXPECT_EQ(array.PeekActual(5), 105u ^ 1u);
  EXPECT_EQ(array.stats().corrupted_writes, 1u);
  // A clean overwrite of the same element clears its deviation.
  hook.armed = false;
  array.Set(5, 7);
  EXPECT_FALSE(array.IsDeviating(5));
  EXPECT_EQ(array.DeviatingElements(), 0u);
}

TEST(ApproxArrayTest, DeviationMatchesIntendedValues) {
  ApproxMemory memory(DefaultOptions());
  constexpr size_t kN = 4000;
  ApproxArrayU32 array = memory.NewApproxArray(kN, 0.12);
  std::vector<uint32_t> intended(kN, 0);
  Rng rng(7);
  const auto random_words = [&rng](size_t count) {
    std::vector<uint32_t> words(count);
    for (uint32_t& w : words) w = rng.NextU32();
    return words;
  };
  const auto expect_matches = [&](const char* step) {
    SCOPED_TRACE(step);
    size_t expected = 0;
    for (size_t i = 0; i < kN; ++i) {
      const bool deviates = array.PeekActual(i) != intended[i];
      expected += deviates;
      ASSERT_EQ(array.IsDeviating(i), deviates) << i;
    }
    EXPECT_EQ(array.DeviatingElements(), expected);
    EXPECT_GT(expected, 0u);
  };

  const std::vector<uint32_t> stored = random_words(kN / 2);
  array.Store(stored);
  std::copy(stored.begin(), stored.end(), intended.begin());
  expect_matches("Store");

  const std::vector<uint32_t> range = random_words(kN / 2 + 101);
  array.SetRange(kN / 2 - 101, range.data(), range.size());
  std::copy(range.begin(), range.end(), intended.begin() + (kN / 2 - 101));
  expect_matches("SetRange");

  ApproxArrayU32 src = memory.NewPreciseArray(kN);
  const std::vector<uint32_t> copied = random_words(kN);
  src.Store(copied);
  array.CopyFrom(src);
  intended = copied;
  expect_matches("CopyFrom");

  // Overwrites both clear and set flags.
  size_t cleared = 0;
  size_t set = 0;
  for (size_t i = 0; i < kN; i += 3) {
    const bool before = array.IsDeviating(i);
    intended[i] = static_cast<uint32_t>(i);
    array.Set(i, intended[i]);
    cleared += before && !array.IsDeviating(i);
    set += !before && array.IsDeviating(i);
  }
  expect_matches("overwrite");
  EXPECT_GT(cleared, 0u);
  EXPECT_GT(set, 0u);
}

TEST(ApproxArrayTest, ConcurrentShardsKeepDeviationFlags) {
  // Shard boundaries that split bytes, 64-bit words and cache lines, so a
  // packed per-word flag would be shared between shards.
  constexpr size_t kN = 20011;
  const std::vector<size_t> bounds = {0, 13, 77, 5003, 5010, 12345, kN};
  const size_t shards = bounds.size() - 1;
  std::vector<uint32_t> values(kN);
  Rng rng(8);
  for (uint32_t& v : values) v = rng.NextU32();

  const auto run = [&](ThreadPool* pool) {
    ApproxMemory memory(DefaultOptions());
    ApproxArrayU32 array = memory.NewApproxArray(kN, 0.12);
    EXPECT_TRUE(array.ConcurrentShardSafe());
    std::vector<ApproxArrayU32::Shard> plan = array.MakeShards(shards);
    const auto drive = [&](size_t s) {
      const size_t begin = bounds[s];
      const size_t end = bounds[s + 1];
      plan[s].SetRange(begin, &values[begin], end - begin);
      // Then single-word overwrites across the whole slice, down to the
      // words next to each boundary.
      for (size_t i = begin; i < end; i += 2) plan[s].Set(i, values[i] >> 1);
      plan[s].Set(end - 1, values[end - 1]);
    };
    if (pool != nullptr) {
      pool->ParallelFor(0, shards, drive);
    } else {
      for (size_t s = 0; s < shards; ++s) drive(s);
    }
    array.MergeShards(plan);
    std::vector<bool> flags(kN);
    for (size_t i = 0; i < kN; ++i) flags[i] = array.IsDeviating(i);
    return std::make_tuple(array.DeviatingElements(), array.Snapshot(),
                           flags);
  };

  const auto serial = run(nullptr);
  ThreadPool pool(4);
  const auto concurrent = run(&pool);
  EXPECT_GT(std::get<0>(serial), 0u);
  EXPECT_EQ(std::get<0>(concurrent), std::get<0>(serial));
  EXPECT_EQ(std::get<1>(concurrent), std::get<1>(serial));
  EXPECT_EQ(std::get<2>(concurrent), std::get<2>(serial));
}

TEST(ApproxArrayTest, PreciseWriteCostsOneMicrosecond) {
  ApproxMemory memory(DefaultOptions());
  ApproxArrayU32 array = memory.NewPreciseArray(10);
  for (size_t i = 0; i < 10; ++i) array.Set(i, 1);
  array.Get(0);
  EXPECT_EQ(array.stats().word_writes, 10u);
  EXPECT_EQ(array.stats().word_reads, 1u);
  EXPECT_DOUBLE_EQ(array.stats().write_cost, 10 * 1000.0);
  EXPECT_DOUBLE_EQ(array.stats().read_cost, 50.0);
}

TEST(ApproxArrayTest, ApproxWritesAreCheaperThanPrecise) {
  ApproxMemory memory(DefaultOptions());
  ApproxArrayU32 array = memory.NewApproxArray(1000, 0.055);
  Rng rng(2);
  for (size_t i = 0; i < 1000; ++i) array.Set(i, rng.NextU32());
  const double per_write = array.stats().write_cost / 1000.0;
  // p(0.055) ~ 0.66 of the 1us precise write.
  EXPECT_LT(per_write, 750.0);
  EXPECT_GT(per_write, 500.0);
  EXPECT_FALSE(array.precise());
}

TEST(ApproxArrayTest, NearPreciseTHasNoCorruption) {
  ApproxMemory memory(DefaultOptions());
  ApproxArrayU32 array = memory.NewApproxArray(20000, 0.03);
  Rng rng(3);
  for (size_t i = 0; i < array.size(); ++i) array.Set(i, rng.NextU32());
  EXPECT_EQ(array.stats().corrupted_writes, 0u);
}

TEST(ApproxArrayTest, NoGuardBandCorruptsHeavily) {
  ApproxMemory memory(DefaultOptions());
  ApproxArrayU32 array = memory.NewApproxArray(20000, 0.12);
  Rng rng(4);
  for (size_t i = 0; i < array.size(); ++i) array.Set(i, rng.NextU32());
  // Figure 2(b): word error rate past 50% without guard bands.
  EXPECT_GT(array.ErrorRate(), 0.30);
  EXPECT_EQ(array.DeviatingElements(), array.stats().corrupted_writes);
}

TEST(ApproxArrayTest, ReadsAreStickyBetweenWrites) {
  ApproxMemory memory(DefaultOptions());
  ApproxArrayU32 array = memory.NewApproxArray(1, 0.12);
  array.Set(0, 0x12345678);
  const uint32_t first = array.Get(0);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(array.Get(0), first);
}

TEST(ApproxArrayTest, CorruptionRateMatchesCalibration) {
  ApproxMemory memory(DefaultOptions());
  const double t = 0.085;
  ApproxArrayU32 array = memory.NewApproxArray(50000, t);
  Rng rng(5);
  for (size_t i = 0; i < array.size(); ++i) array.Set(i, rng.NextU32());
  const double expected =
      memory.calibration().ForT(t).WordErrorRate(16);
  EXPECT_NEAR(array.ErrorRate(), expected, 0.15 * expected + 0.005);
}

TEST(ApproxArrayTest, StoreAndCopyFromCountAccesses) {
  ApproxMemory memory(DefaultOptions());
  ApproxArrayU32 src = memory.NewPreciseArray(50);
  src.Store(std::vector<uint32_t>(50, 7));
  EXPECT_EQ(src.stats().word_writes, 50u);
  ApproxArrayU32 dst = memory.NewApproxArray(50, 0.055);
  dst.CopyFrom(src);
  EXPECT_EQ(dst.stats().word_writes, 50u);
  EXPECT_EQ(src.stats().word_reads, 50u);
}

TEST(ApproxArrayTest, StatsSinkReceivesOnDestruction) {
  ApproxMemory memory(DefaultOptions());
  MemoryStats sink;
  {
    ApproxArrayU32 array = memory.NewPreciseArray(10);
    array.SetStatsSink(&sink);
    for (size_t i = 0; i < 10; ++i) array.Set(i, 1);
  }
  EXPECT_EQ(sink.word_writes, 10u);
  EXPECT_DOUBLE_EQ(sink.write_cost, 10 * 1000.0);
}

TEST(ApproxArrayTest, MoveDoesNotDoubleFlush) {
  ApproxMemory memory(DefaultOptions());
  MemoryStats sink;
  {
    ApproxArrayU32 array = memory.NewPreciseArray(10);
    array.SetStatsSink(&sink);
    array.Set(0, 1);
    ApproxArrayU32 moved = std::move(array);
    moved.Set(1, 2);
  }
  EXPECT_EQ(sink.word_writes, 2u);
}

// A fault hook sees every access at its byte address, in program order.
TEST(ApproxArrayTest, TraceRecordsAddresses) {
  RecordingHook recorder;
  ApproxMemory::Options options = DefaultOptions();
  options.fault_hook = &recorder;
  ApproxMemory memory(options);
  ApproxArrayU32 a = memory.NewPreciseArray(4);
  ApproxArrayU32 b = memory.NewPreciseArray(4);
  a.Set(0, 1);
  b.Set(0, 1);
  a.Get(1);
  const std::vector<AccessEvent>& trace = recorder.events();
  ASSERT_EQ(trace.size(), 3u);
  EXPECT_EQ(trace[0].kind, mem::AccessKind::kWrite);
  EXPECT_EQ(trace[0].address, a.base_address());
  EXPECT_EQ(trace[1].address, b.base_address());
  EXPECT_NE(a.base_address(), b.base_address());
  EXPECT_EQ(trace[2].kind, mem::AccessKind::kRead);
  EXPECT_EQ(trace[2].address, a.base_address() + 4);
}

TEST(ApproxArrayTest, ExactModeMatchesFastModeStatistically) {
  const double t = 0.09;
  auto run = [&](SimulationMode mode) {
    ApproxMemory::Options options = DefaultOptions();
    options.mode = mode;
    ApproxMemory memory(options);
    ApproxArrayU32 array = memory.NewApproxArray(30000, t);
    Rng rng(6);
    for (size_t i = 0; i < array.size(); ++i) array.Set(i, rng.NextU32());
    return std::make_pair(array.ErrorRate(),
                          array.stats().write_cost /
                              static_cast<double>(array.size()));
  };
  const auto [fast_error, fast_cost] = run(SimulationMode::kFast);
  const auto [exact_error, exact_cost] = run(SimulationMode::kExact);
  EXPECT_NEAR(fast_error, exact_error, 0.1 * exact_error + 0.01);
  EXPECT_NEAR(fast_cost, exact_cost, 0.05 * exact_cost);
}

// Forwards every access unchanged. Installing it takes an array off the
// plain fast path (a hook observes each access) without changing a value.
struct PassThroughHook final : MemoryFaultHook {
  uint32_t OnWrite(uint64_t /*address*/, bool /*precise_domain*/,
                   uint32_t /*intended*/, uint32_t stored) override {
    return stored;
  }
  uint32_t OnRead(uint64_t /*address*/, bool /*precise_domain*/,
                  uint32_t value) override {
    return value;
  }
};

// Bitwise ledger equality: the plain path must reproduce every floating-
// point sum to the last bit, not merely to within rounding.
void ExpectSameLedger(const MemoryStats& a, const MemoryStats& b) {
  static_assert(sizeof(MemoryStats) == 8 * sizeof(uint64_t),
                "MemoryStats has padding; compare it field by field");
  EXPECT_EQ(std::memcmp(&a, &b, sizeof(MemoryStats)), 0)
      << std::hexfloat << "write_cost " << a.write_cost << " vs "
      << b.write_cost << ", read_cost " << a.read_cost << " vs "
      << b.read_cost << ", pv " << a.pv_iterations << " vs "
      << b.pv_iterations << ", sequential " << a.sequential_writes << " vs "
      << b.sequential_writes;
}

struct AccessRun {
  std::vector<std::vector<uint32_t>> values;
  std::vector<uint32_t> reads;
  std::vector<MemoryStats> ledgers;
};

// One fixed sequence of every access kind over three precise arrays and an
// approximate one (the sharded scatter pairs it with precise ids).
AccessRun RunAccessSequence(const std::string& backend, double discount,
                            MemoryFaultHook* hook) {
  ApproxMemory::Options options = DefaultOptions();
  options.backend = backend;
  options.calibration_trials = 5000;
  options.sequential_write_discount = discount;
  options.fault_hook = hook;
  ApproxMemory memory(options);
  constexpr size_t kN = 900;
  ApproxArrayU32 keys = memory.NewPreciseArray(kN);
  ApproxArrayU32 ids = memory.NewPreciseArray(kN);
  ApproxArrayU32 copy = memory.NewPreciseArray(kN);
  ApproxArrayU32 approx_keys =
      memory.NewApproxArray(kN, memory.backend().default_approx_knob());
  EXPECT_EQ(keys.ConcurrentShardSafe(), hook == nullptr);
  Rng rng(21);
  std::vector<uint32_t> words(kN);
  for (uint32_t& w : words) w = rng.NextU32();
  AccessRun run;
  uint32_t buf[300];
  const auto read_back = [&](ApproxArrayU32& array, size_t start,
                             size_t count) {
    array.GetRange(start, buf, count);
    run.reads.insert(run.reads.end(), buf, buf + count);
  };

  // Scalar writes (a sequential run, a repeat, a step back), then chained
  // SetRange calls that continue, skip, empty-extend and rewind the run,
  // and a Set that continues the last range.
  for (size_t i = 0; i < 40; ++i) keys.Set(i, words[i]);
  keys.Set(500, 1);
  keys.Set(500, 2);
  keys.Set(499, 3);
  keys.SetRange(40, &words[40], 100);
  keys.SetRange(140, &words[140], 0);
  keys.SetRange(140, &words[140], 60);
  keys.SetRange(300, &words[300], 64);
  keys.SetRange(100, &words[100], 30);
  keys.Set(130, 7);
  read_back(keys, 0, 300);
  run.reads.push_back(keys.Get(499));
  read_back(keys, 450, 100);
  ids.Store(words);
  ids.Store(std::vector<uint32_t>(words.begin(), words.begin() + 77));
  copy.CopyFrom(keys);

  // Sharded: per shard, paired block scatters (keys with ids, then the
  // approximate keys with ids, then keys alone), a chained SetRange and a
  // GetRange over its slice.
  constexpr size_t kShards = 3;
  auto key_plan = keys.MakeShards(kShards);
  auto id_plan = ids.MakeShards(kShards);
  auto approx_plan = approx_keys.MakeShards(kShards);
  for (size_t s = 0; s < kShards; ++s) {
    const size_t begin = s * kN / kShards;
    const size_t end = (s + 1) * kN / kShards;
    size_t dest[ApproxArrayU32::kScatterBlock];
    const size_t m = ApproxArrayU32::kScatterBlock;
    // Descending, then ascending (sequential) destinations.
    for (size_t k = 0; k < m; ++k) dest[k] = end - 1 - k;
    key_plan[s].ScatterPaired(dest, &words[begin], &id_plan[s],
                              &words[end - m], m);
    for (size_t k = 0; k < m; ++k) dest[k] = begin + k;
    approx_plan[s].ScatterPaired(dest, &words[begin], &id_plan[s],
                                 &words[begin + 1], m);
    key_plan[s].ScatterPaired(dest, &words[end - m], nullptr, nullptr, m / 2);
    key_plan[s].SetRange(begin + m / 2, &words[begin], 50);
    key_plan[s].SetRange(begin + m / 2 + 50, &words[begin], 25);
    key_plan[s].GetRange(begin, buf, end - begin);
    run.reads.insert(run.reads.end(), buf, buf + (end - begin));
  }
  keys.MergeShards(key_plan);
  ids.MergeShards(id_plan);
  approx_keys.MergeShards(approx_plan);
  // The cursor restarts after a merge: this run's first word is not
  // sequential.
  keys.SetRange(0, &words[0], 10);

  for (ApproxArrayU32* array : {&keys, &ids, &copy, &approx_keys}) {
    run.values.push_back(array->Snapshot());
    run.ledgers.push_back(array->stats());
  }
  return run;
}

TEST(ApproxArrayTest, PlainPathMatchesHookedPathBitForBit) {
  for (const std::string backend : {"mlc-pcm", "dram-precise", "spintronic"}) {
    for (const double discount : {1.0, 0.8}) {
      SCOPED_TRACE(backend + " discount=" + std::to_string(discount));
      PassThroughHook hook;
      const AccessRun plain = RunAccessSequence(backend, discount, nullptr);
      const AccessRun general = RunAccessSequence(backend, discount, &hook);
      EXPECT_EQ(plain.values, general.values);
      EXPECT_EQ(plain.reads, general.reads);
      ASSERT_EQ(plain.ledgers.size(), general.ledgers.size());
      for (size_t a = 0; a < plain.ledgers.size(); ++a) {
        SCOPED_TRACE("array " + std::to_string(a));
        ExpectSameLedger(plain.ledgers[a], general.ledgers[a]);
      }
      // The sequence exercises the discount rule on the plain arrays.
      EXPECT_GT(plain.ledgers[0].sequential_writes, 0u);
      EXPECT_LT(plain.ledgers[0].sequential_writes,
                plain.ledgers[0].word_writes);
    }
  }
}

TEST(ApproxArrayTest, ConcurrentPlainShardsMatchSerial) {
  constexpr size_t kN = 20011;
  const std::vector<size_t> bounds = {0, 13, 77, 5003, 5010, 12345, kN};
  const size_t shards = bounds.size() - 1;
  std::vector<uint32_t> words(kN);
  Rng rng(9);
  for (uint32_t& w : words) w = rng.NextU32();

  const auto run = [&](ThreadPool* pool) {
    ApproxMemory::Options options = DefaultOptions();
    options.sequential_write_discount = 0.8;
    ApproxMemory memory(options);
    ApproxArrayU32 keys = memory.NewPreciseArray(kN);
    ApproxArrayU32 ids = memory.NewPreciseArray(kN);
    EXPECT_TRUE(keys.ConcurrentShardSafe());
    auto key_plan = keys.MakeShards(shards);
    auto id_plan = ids.MakeShards(shards);
    std::vector<uint32_t> reads(kN);
    std::vector<uint32_t> gathered_keys(kN);
    std::vector<uint32_t> gathered_ids(kN);
    const auto drive = [&](size_t s) {
      const size_t begin = bounds[s];
      const size_t end = bounds[s + 1];
      for (size_t i = begin; i < end; i += 64) {
        const size_t m = std::min<size_t>(64, end - i);
        key_plan[s].SetRange(i, &words[i], m);
      }
      key_plan[s].GetRange(begin, &reads[begin], end - begin);
      // Scatter each block back in reverse order, keys paired with ids.
      size_t dest[ApproxArrayU32::kScatterBlock];
      for (size_t i = begin; i < end; i += ApproxArrayU32::kScatterBlock) {
        const size_t m = std::min(ApproxArrayU32::kScatterBlock, end - i);
        for (size_t k = 0; k < m; ++k) dest[k] = i + m - 1 - k;
        key_plan[s].ScatterPaired(dest, &reads[i], &id_plan[s], &words[i], m);
      }
      // Read the scattered pairs back in paired blocks.
      for (size_t i = begin; i < end; i += 64) {
        const size_t m = std::min<size_t>(64, end - i);
        key_plan[s].GatherPaired(i, &gathered_keys[i], &id_plan[s],
                                 &gathered_ids[i], m);
      }
    };
    if (pool != nullptr) {
      pool->ParallelFor(0, shards, drive);
    } else {
      for (size_t s = 0; s < shards; ++s) drive(s);
    }
    keys.MergeShards(key_plan);
    ids.MergeShards(id_plan);
    EXPECT_EQ(gathered_keys, keys.Snapshot());
    EXPECT_EQ(gathered_ids, ids.Snapshot());
    return std::make_tuple(keys.Snapshot(), ids.Snapshot(), reads,
                           keys.stats(), ids.stats());
  };

  const auto serial = run(nullptr);
  ThreadPool pool(4);
  const auto concurrent = run(&pool);
  EXPECT_EQ(std::get<0>(concurrent), std::get<0>(serial));
  EXPECT_EQ(std::get<1>(concurrent), std::get<1>(serial));
  EXPECT_EQ(std::get<2>(concurrent), words);
  EXPECT_EQ(std::get<2>(serial), words);
  ExpectSameLedger(std::get<3>(concurrent), std::get<3>(serial));
  ExpectSameLedger(std::get<4>(concurrent), std::get<4>(serial));
}

// Everything a paired block read can touch, captured after the fact.
struct GatherRun {
  std::vector<uint32_t> keys, ids, keys_alone;
  std::vector<MemoryStats> ledgers;
  std::vector<AccessEvent> accesses;
  DeviceState device;
};

// Reads approximate keys paired with precise ids through two shards, in
// blocks of 1..64 elements, then the keys alone. `paired` drives
// GatherPaired; otherwise the interleaved Get loop it replaces.
GatherRun RunGather(std::string_view backend, bool hooked, bool paired) {
  RecordingHook recorder;
  ApproxMemory::Options options = DefaultOptions();
  options.backend = std::string(backend);
  options.calibration_trials = 5000;
  if (hooked) options.fault_hook = &recorder;
  ApproxMemory memory(options);
  constexpr size_t kN = 1500;
  ApproxArrayU32 keys =
      memory.NewApproxArray(kN, memory.backend().default_approx_knob());
  ApproxArrayU32 ids = memory.NewPreciseArray(kN);
  Rng rng(31);
  std::vector<uint32_t> words(kN);
  for (uint32_t& w : words) w = rng.NextU32();
  keys.Store(words);
  std::reverse(words.begin(), words.end());
  ids.Store(words);

  GatherRun run;
  run.keys.resize(kN);
  run.ids.resize(kN);
  run.keys_alone.resize(kN);
  constexpr size_t kShards = 2;
  auto key_plan = keys.MakeShards(kShards);
  auto id_plan = ids.MakeShards(kShards);
  Rng block_sizes(7);
  for (size_t s = 0; s < kShards; ++s) {
    const size_t begin = s * kN / kShards;
    const size_t end = (s + 1) * kN / kShards;
    for (size_t i = begin; i < end;) {
      const size_t m = std::min<size_t>(end - i,
                                         1 + block_sizes.UniformInt(64));
      if (paired) {
        key_plan[s].GatherPaired(i, &run.keys[i], &id_plan[s], &run.ids[i],
                                 m);
        key_plan[s].GatherPaired(i, &run.keys_alone[i], nullptr, nullptr, m);
      } else {
        for (size_t k = i; k < i + m; ++k) {
          run.keys[k] = key_plan[s].Get(k);
          run.ids[k] = id_plan[s].Get(k);
        }
        for (size_t k = i; k < i + m; ++k) {
          run.keys_alone[k] = key_plan[s].Get(k);
        }
      }
      i += m;
    }
    run.ledgers.push_back(key_plan[s].stats());
    run.ledgers.push_back(id_plan[s].stats());
  }
  keys.MergeShards(key_plan);
  ids.MergeShards(id_plan);
  run.accesses = recorder.events();
  run.device = CaptureDevice(memory.backend().cost_system());
  return run;
}

TEST(ApproxArrayTest, GatherPairedMatchesInterleavedGets) {
  // Flat arrays (spintronic's 0.05 read cost is not a short binary
  // fraction), hooked arrays, and banked arrays sharing one device.
  const std::pair<std::string_view, bool> cases[] = {
      {kPcmBackendName, false},
      {kSpintronicBackendName, false},
      {kPcmBackendName, true},
      {kBankedPcmBackendName, false},
      {kBankedPcmBackendName, true}};
  for (const auto& [backend, hooked] : cases) {
    SCOPED_TRACE(std::string(backend) + (hooked ? " hooked" : ""));
    const GatherRun paired = RunGather(backend, hooked, true);
    const GatherRun loop = RunGather(backend, hooked, false);
    EXPECT_EQ(paired.keys, loop.keys);
    EXPECT_EQ(paired.ids, loop.ids);
    EXPECT_EQ(paired.keys_alone, loop.keys);
    ASSERT_EQ(paired.ledgers.size(), loop.ledgers.size());
    for (size_t k = 0; k < loop.ledgers.size(); ++k) {
      SCOPED_TRACE("ledger " + std::to_string(k));
      ExpectSameLedger(paired.ledgers[k], loop.ledgers[k]);
    }
    ExpectSameDevice(paired.device, loop.device);
    ASSERT_EQ(paired.accesses.size(), loop.accesses.size());
    for (size_t e = 0; e < loop.accesses.size(); ++e) {
      ASSERT_EQ(paired.accesses[e].address, loop.accesses[e].address) << e;
      ASSERT_EQ(paired.accesses[e].kind, loop.accesses[e].kind) << e;
    }
    // Not vacuous: the hook saw every read, and the device charged them.
    if (hooked) {
      EXPECT_GT(loop.accesses.size(), 3 * loop.keys.size());
    }
    if (backend == kBankedPcmBackendName) {
      EXPECT_EQ(loop.device.system.reads, 3 * loop.keys.size());
    }
  }
}

// Everything an indexed read can touch, captured after the fact.
struct IndexedRun {
  std::vector<uint32_t> values;
  MemoryStats ledger;
  std::vector<AccessEvent> accesses;
  DeviceState device;
};

// Reads approximate words at random, repeated and ascending indices in
// blocks of 0..300, through GetIndexed or through the Get loop it replaces.
IndexedRun RunIndexed(std::string_view backend, bool hooked, bool indexed) {
  RecordingHook recorder;
  ApproxMemory::Options options = DefaultOptions();
  options.backend = std::string(backend);
  options.calibration_trials = 5000;
  if (hooked) options.fault_hook = &recorder;
  ApproxMemory memory(options);
  constexpr size_t kN = 1200;
  ApproxArrayU32 array =
      memory.NewApproxArray(kN, memory.backend().default_approx_knob());
  Rng rng(61);
  std::vector<uint32_t> words(kN);
  for (uint32_t& w : words) w = rng.NextU32();
  array.Store(words);
  array.ResetStats();

  std::vector<uint32_t> index;
  for (size_t k = 0; k < 3000; ++k) {
    index.push_back(k % 3 == 0   ? static_cast<uint32_t>(k % kN)
                    : k % 3 == 1 ? 7u
                                 : static_cast<uint32_t>(rng.UniformInt(kN)));
  }
  IndexedRun run;
  run.values.resize(index.size());
  Rng block_sizes(67);
  for (size_t i = 0; i < index.size();) {
    const size_t m =
        std::min<size_t>(index.size() - i, block_sizes.UniformInt(301));
    if (indexed) {
      array.GetIndexed(&index[i], &run.values[i], m);
    } else {
      for (size_t k = i; k < i + m; ++k) run.values[k] = array.Get(index[k]);
    }
    i += m;
  }
  run.ledger = array.stats();
  run.accesses = recorder.events();
  run.device = CaptureDevice(memory.backend().cost_system());
  return run;
}

TEST(ApproxArrayTest, GetIndexedMatchesGetLoop) {
  // Flat arrays (spintronic's 0.05 read cost is not a short binary
  // fraction), a hooked array, and banked arrays.
  const std::pair<std::string_view, bool> cases[] = {
      {kPcmBackendName, false},
      {kSpintronicBackendName, false},
      {kPcmBackendName, true},
      {kBankedPcmBackendName, false},
      {kBankedPcmBackendName, true}};
  for (const auto& [backend, hooked] : cases) {
    SCOPED_TRACE(std::string(backend) + (hooked ? " hooked" : ""));
    const IndexedRun indexed = RunIndexed(backend, hooked, true);
    const IndexedRun loop = RunIndexed(backend, hooked, false);
    EXPECT_EQ(indexed.values, loop.values);
    ExpectSameLedger(indexed.ledger, loop.ledger);
    ExpectSameDevice(indexed.device, loop.device);
    ASSERT_EQ(indexed.accesses.size(), loop.accesses.size());
    for (size_t e = 0; e < loop.accesses.size(); ++e) {
      ASSERT_EQ(indexed.accesses[e].address, loop.accesses[e].address) << e;
      ASSERT_EQ(indexed.accesses[e].kind, loop.accesses[e].kind) << e;
    }
    // Not vacuous: every read was charged, seen by the hook, and charged
    // by the device.
    EXPECT_EQ(loop.ledger.word_reads, loop.values.size());
    if (hooked) {
      EXPECT_GT(loop.accesses.size(), loop.values.size());
    }
    if (backend == kBankedPcmBackendName) {
      EXPECT_EQ(loop.device.system.reads, loop.values.size());
    }
  }
}

// Everything an unobserved paired scatter can touch.
struct ScatterRun {
  std::vector<uint32_t> keys, ids;
  std::vector<MemoryStats> ledgers;
};

// Scatters keys paired with ids (and keys alone) through two shards of
// flat arrays, then writes a probe range through each shard, whose stored
// values show where the shard's RNG stream stood. `paired` drives
// ScatterPaired; otherwise the interleaved Set loop it replaces.
ScatterRun RunUnobservedScatter(bool approx_keys, double discount,
                                bool paired) {
  ApproxMemory::Options options = DefaultOptions();
  options.calibration_trials = 5000;
  options.sequential_write_discount = discount;
  ApproxMemory memory(options);
  constexpr size_t kN = 2000;
  constexpr size_t kProbe = 128;
  constexpr size_t kShards = 2;
  const size_t size = kN + kShards * kProbe;
  ApproxArrayU32 keys =
      approx_keys
          ? memory.NewApproxArray(size, memory.backend().default_approx_knob())
          : memory.NewPreciseArray(size);
  ApproxArrayU32 ids = memory.NewPreciseArray(size);
  Rng rng(41);
  std::vector<uint32_t> words(kN);
  for (uint32_t& w : words) w = rng.NextU32();
  // Destinations: ascending runs (sequential hits, starting at element 0),
  // descending runs, and random jumps.
  std::vector<size_t> dest(kN);
  for (size_t i = 0; i < kN; ++i) {
    const size_t block = i / 100;
    dest[i] = block % 3 == 0   ? i
              : block % 3 == 1 ? block * 100 + 99 - i % 100
                               : rng.UniformInt(kN);
  }

  auto key_plan = keys.MakeShards(kShards);
  auto id_plan = ids.MakeShards(kShards);
  Rng block_sizes(43);
  for (size_t s = 0; s < kShards; ++s) {
    const size_t begin = s * kN / kShards;
    const size_t end = (s + 1) * kN / kShards;
    for (size_t i = begin; i < end;) {
      const size_t m = std::min<size_t>(
          end - i, 1 + block_sizes.UniformInt(ApproxArrayU32::kScatterBlock));
      const bool alone = block_sizes.UniformInt(4) == 0;
      if (paired) {
        key_plan[s].ScatterPaired(&dest[i], &words[i],
                                  alone ? nullptr : &id_plan[s],
                                  alone ? nullptr : &words[kN - i - m], m);
      } else {
        for (size_t k = i; k < i + m; ++k) {
          key_plan[s].Set(dest[k], words[k]);
          if (!alone) id_plan[s].Set(dest[k], words[kN - i - m + (k - i)]);
        }
      }
      i += m;
    }
    key_plan[s].SetRange(kN + s * kProbe, &words[0], kProbe);
    id_plan[s].SetRange(kN + s * kProbe, &words[0], kProbe);
  }
  ScatterRun run;
  for (size_t s = 0; s < kShards; ++s) {
    run.ledgers.push_back(key_plan[s].stats());
    run.ledgers.push_back(id_plan[s].stats());
  }
  keys.MergeShards(key_plan);
  ids.MergeShards(id_plan);
  run.keys = keys.Snapshot();
  run.ids = ids.Snapshot();
  return run;
}

TEST(ApproxArrayTest, UnobservedScatterPairedMatchesInterleavedSets) {
  for (const bool approx_keys : {true, false}) {
    for (const double discount : {1.0, 0.5}) {
      SCOPED_TRACE(std::string(approx_keys ? "approx" : "plain") +
                   " keys, discount=" + std::to_string(discount));
      const ScatterRun paired = RunUnobservedScatter(approx_keys, discount,
                                                     true);
      const ScatterRun loop = RunUnobservedScatter(approx_keys, discount,
                                                   false);
      EXPECT_EQ(paired.keys, loop.keys);
      EXPECT_EQ(paired.ids, loop.ids);
      ASSERT_EQ(paired.ledgers.size(), loop.ledgers.size());
      for (size_t k = 0; k < loop.ledgers.size(); ++k) {
        SCOPED_TRACE("ledger " + std::to_string(k));
        ExpectSameLedger(paired.ledgers[k], loop.ledgers[k]);
      }
      // Not vacuous: sequential hits on both arrays, and corrupted keys on
      // the approximate side.
      EXPECT_GT(loop.ledgers[0].sequential_writes, 0u);
      EXPECT_GT(loop.ledgers[1].sequential_writes, 0u);
      if (approx_keys) {
        EXPECT_GT(loop.ledgers[0].corrupted_writes, 0u);
      }
    }
  }
}

TEST(ApproxArrayTest, PlainRangesCrossAPowerOfTwoExactly) {
  // Each ledger is driven by single accesses to within a few words of a
  // power of two; one range then crosses it and a second range continues
  // the first. The ranged array must match a twin driven word by word.
  // mlc-pcm's precise #P per word and spintronic's read cost are not
  // short binary fractions, so every binade rounds them differently.
  for (const std::string_view backend :
       {kPcmBackendName, kSpintronicBackendName}) {
    for (const double discount : {1.0, 0.8}) {
      SCOPED_TRACE(std::string(backend) +
                   " discount=" + std::to_string(discount));
      ApproxMemory::Options options = DefaultOptions();
      options.backend = std::string(backend);
      options.calibration_trials = 5000;
      options.sequential_write_discount = discount;
      ApproxMemory memory(options);
      constexpr size_t kN = 4000;
      ApproxArrayU32 ranged = memory.NewPreciseArray(kN);
      ApproxArrayU32 single = memory.NewPreciseArray(kN);
      Rng rng(51);
      std::vector<uint32_t> words(kN);
      for (uint32_t& w : words) w = rng.NextU32();

      // Writes: the ledger that grows by a fraction per word.
      const auto fraction_ledger = [&](const MemoryStats& stats) {
        return stats.pv_iterations > 0.0 ? stats.pv_iterations
                                         : stats.write_cost;
      };
      size_t i = 0;
      ranged.Set(i, words[i]);
      single.Set(i, words[i]);
      ++i;
      const double per_word = fraction_ledger(single.stats());
      const double top = std::exp2(std::ceil(std::log2(per_word * 1500)));
      while (fraction_ledger(single.stats()) + 3 * per_word < top) {
        ranged.Set(i, words[i]);
        single.Set(i, words[i]);
        ++i;
      }
      const double before = fraction_ledger(single.stats());
      ranged.SetRange(i, &words[i], 200);
      ranged.SetRange(i + 200, &words[i + 200], 100);
      for (size_t k = i; k < i + 300; ++k) single.Set(k, words[k]);
      EXPECT_LT(before, top);
      EXPECT_GE(fraction_ledger(single.stats()), top);
      ExpectSameLedger(ranged.stats(), single.stats());

      // Reads, the same way.
      ranged.ResetStats();
      single.ResetStats();
      size_t r = 0;
      const double read_cost = memory.backend()
                                   .ModelFor(AllocSpec::Precise(1))
                                   .value()
                                   ->ReadCost();
      const double read_top = std::exp2(std::ceil(std::log2(read_cost * 1500)));
      while (single.stats().read_cost + 3 * read_cost < read_top) {
        ranged.Get(r);
        single.Get(r);
        ++r;
      }
      uint32_t buf[300];
      ranged.GetRange(r, buf, 200);
      ranged.GetRange(r + 200, buf + 200, 100);
      for (size_t k = r; k < r + 300; ++k) EXPECT_EQ(single.Get(k), buf[k - r]);
      EXPECT_GE(single.stats().read_cost, read_top);
      ExpectSameLedger(ranged.stats(), single.stats());
    }
  }
}

}  // namespace
}  // namespace approxmem::approx
