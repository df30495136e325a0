// Bit parity of the batched hot-loop kernels against their scalar
// counterparts: the span word codec, the calibrated batch error sampler's
// block-uniform first-error scan, WriteModel::WriteBatch on every model
// the backends hand out for flat-cost arrays, and the paired block scatter
// and SetRange the sorts write through (on the banked device too). The
// batched paths exist purely for speed — every observable (outcomes, costs,
// RNG stream position, fault-hook and trace order, banked device state)
// must be bit-identical to the per-word loops they replace.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "approx/approx_array.h"
#include "approx/approx_memory.h"
#include "approx/memory_backend.h"
#include "approx/write_model.h"
#include "common/random.h"
#include "mem/memory_system.h"
#include "mlc/calibration.h"
#include "mlc/mlc_config.h"
#include "mlc/word_codec.h"
#include "testing/fault_injection.h"
#include "access_stream.h"

namespace approxmem {
namespace {

std::vector<uint32_t> RandomWords(size_t count, uint64_t seed) {
  Rng rng(seed);
  std::vector<uint32_t> words(count);
  for (auto& word : words) word = rng.NextU32();
  // Make sure the degenerate patterns are always present.
  if (count > 3) {
    words[0] = 0;
    words[1] = 0xffffffffu;
    words[2] = 0x55555555u;
  }
  return words;
}

void ExpectCodecParity(const mlc::MlcConfig& config, size_t count) {
  const std::vector<uint32_t> words = RandomWords(count, 0xc0dec + count);
  const size_t cells = static_cast<size_t>(config.CellsPerWord());

  std::vector<uint8_t> batched(count * cells);
  mlc::EncodeWords(words.data(), count, config, batched.data());
  for (size_t w = 0; w < count; ++w) {
    const mlc::WordLevels scalar = mlc::EncodeWord(words[w], config);
    for (size_t c = 0; c < cells; ++c) {
      ASSERT_EQ(batched[w * cells + c], scalar[c])
          << "word " << w << " cell " << c;
    }
  }

  std::vector<uint32_t> decoded(count);
  mlc::DecodeWords(batched.data(), count, config, decoded.data());
  EXPECT_EQ(decoded, words);
}

TEST(WordCodecBatchTest, SpanCodecMatchesScalarOnEveryLayout) {
  // 2-bit MLC (the paper's layout, 16x2 fast path), 4-bit, and SLC. Odd
  // counts exercise the partial tail of any internal chunking.
  ExpectCodecParity(mlc::MlcConfig(), 1013);
  mlc::MlcConfig four_bit;
  four_bit.levels = 16;
  ExpectCodecParity(four_bit, 517);
  mlc::MlcConfig slc;
  slc.levels = 2;
  ExpectCodecParity(slc, 129);
}

TEST(BatchErrorSamplerTest, WordStatsMatchCalibrationTables) {
  const mlc::MlcConfig config = mlc::MlcConfig().WithT(0.07);
  const mlc::CellCalibration calibration =
      mlc::CellCalibration::Run(config, 20000, /*seed=*/5, nullptr);
  const mlc::BatchErrorSampler sampler(calibration);
  EXPECT_TRUE(sampler.fast_layout());

  const std::vector<uint32_t> words = RandomWords(512, 0x7ab1e);
  std::vector<mlc::BatchErrorSampler::WordStats> batch(words.size());
  sampler.StatsForWords(words.data(), words.size(), batch.data());
  for (size_t w = 0; w < words.size(); ++w) {
    // The batch call must equal the single-word entry point exactly...
    const auto single = sampler.StatsFor(words[w]);
    ASSERT_EQ(batch[w].pv_sum, single.pv_sum) << "word " << w;
    ASSERT_EQ(batch[w].no_error, single.no_error) << "word " << w;
    // ...and both must agree with a per-cell walk over the calibration's
    // public tables (to rounding, since the byte tables pre-fold partials).
    const mlc::WordLevels levels = mlc::EncodeWord(words[w], config);
    double pv = 0.0;
    double stay = 1.0;
    for (int c = 0; c < config.CellsPerWord(); ++c) {
      pv += calibration.AvgPvForLevel(levels[static_cast<size_t>(c)]);
      stay *= 1.0 - calibration.ErrorProbForLevel(
                        levels[static_cast<size_t>(c)]);
    }
    ASSERT_DOUBLE_EQ(batch[w].pv_sum, pv) << "word " << w;
    ASSERT_DOUBLE_EQ(batch[w].no_error, stay) << "word " << w;
  }
}

TEST(BatchErrorSamplerTest, FirstCorruptedMatchesScalarDrawSequence) {
  Rng gen(0xf17e);
  for (int round = 0; round < 64; ++round) {
    const size_t count = 1 + gen.UniformInt(200);
    std::vector<double> word_error(count);
    for (double& e : word_error) {
      const double kind = gen.UniformDouble();
      // Mix of non-drawing words, rare errors, and near-certain errors so
      // the scan ends both inside blocks and past the last block.
      e = kind < 0.3 ? 0.0
                     : (kind < 0.95 ? gen.UniformDouble() * 0.02 : 0.9);
    }
    const uint64_t seed = gen.Next64();
    Rng batched(seed);
    Rng scalar(seed);
    const size_t got = mlc::BatchErrorSampler::FirstCorrupted(
        word_error.data(), count, batched);

    size_t want = count;
    for (size_t i = 0; i < count; ++i) {
      if (word_error[i] <= 0.0) continue;
      if (scalar.UniformDouble() < word_error[i]) {
        want = i;
        break;
      }
    }
    ASSERT_EQ(got, want) << "round " << round;
    // The block refills must leave the stream exactly where the scalar
    // loop left it.
    for (int k = 0; k < 4; ++k) {
      ASSERT_EQ(batched.Next64(), scalar.Next64()) << "round " << round;
    }
  }
}

// WriteBatch over a block vs Write per word on the same stream: outcomes
// and the stream position afterwards must match bit for bit. `corrupted`
// receives how many words the model corrupted.
void ExpectWriteBatchParity(approx::MemoryBackend& backend,
                            const approx::AllocSpec& spec,
                            uint64_t* corrupted) {
  auto model = backend.ModelFor(spec);
  ASSERT_TRUE(model.ok()) << model.status().ToString();

  const std::vector<uint32_t> words = RandomWords(spec.n, 0xba7c4);
  const uint64_t seed = 31337;
  Rng batched_rng(seed);
  Rng scalar_rng(seed);
  std::vector<approx::WordWriteOutcome> batched(spec.n);
  std::vector<approx::WordWriteOutcome> scalar(spec.n);
  (*model)->WriteBatch(words.data(), spec.n, batched_rng, batched.data());
  for (size_t i = 0; i < spec.n; ++i) {
    scalar[i] = (*model)->Write(words[i], scalar_rng);
  }

  *corrupted = 0;
  for (size_t i = 0; i < spec.n; ++i) {
    ASSERT_EQ(batched[i].stored, scalar[i].stored) << "word " << i;
    ASSERT_EQ(batched[i].cost, scalar[i].cost) << "word " << i;
    ASSERT_EQ(batched[i].pv_iterations, scalar[i].pv_iterations)
        << "word " << i;
    if (batched[i].stored != words[i]) ++*corrupted;
  }
  for (int k = 0; k < 4; ++k) {
    ASSERT_EQ(batched_rng.Next64(), scalar_rng.Next64());
  }
}

// 64-word blocks internally; the odd count exercises the partial tail.
constexpr size_t kParityWords = 2048 + 17;

std::unique_ptr<approx::MemoryBackend> MakeBackend(
    std::string_view name, approx::BackendContext context = {}) {
  context.calibration_trials = 5000;
  auto backend = approx::CreateMemoryBackend(std::string(name), context);
  EXPECT_TRUE(backend.ok()) << backend.status().ToString();
  return backend.ok() ? std::move(*backend) : nullptr;
}

TEST(WriteModelBatchTest, FastPcmWriteBatchMatchesScalarWrites) {
  auto backend = MakeBackend(approx::kPcmBackendName);
  ASSERT_NE(backend, nullptr);
  uint64_t corrupted = 0;
  ExpectWriteBatchParity(
      *backend, approx::AllocSpec::Approx(0.08, kParityWords), &corrupted);
  // A hot operating point, so the parity is not vacuous.
  EXPECT_GT(corrupted, 0u);
}

TEST(WriteModelBatchTest, FastPcmParityHoldsWhereWordsDrawNothing) {
  // A word whose cells all sit on never-erring calibrated levels has error
  // probability 0 and draws no uniform at all; the batched scan and the
  // one-word kernel must skip exactly the same words. At the precise floor
  // T every level is clean; at T = 0.085 only the top level is, so clean
  // and drawing words mix (the test words include 0xffffffff).
  approx::BackendContext context;
  context.calibration = std::make_shared<mlc::CalibrationCache>(
      context.mlc.WithT(context.mlc.precise_t_width), 5000,
      context.calibration_seed);
  auto backend = MakeBackend(approx::kPcmBackendName, context);
  ASSERT_NE(backend, nullptr);
  const std::vector<uint32_t> words = RandomWords(kParityWords, 0xba7c4);
  for (const double t : {context.mlc.precise_t_width, 0.085}) {
    SCOPED_TRACE(t);
    const mlc::BatchErrorSampler sampler(context.calibration->ForT(t));
    size_t silent = 0;
    for (const uint32_t word : words) {
      if (sampler.StatsFor(word).no_error >= 1.0) ++silent;
    }
    EXPECT_GT(silent, 0u);
    uint64_t corrupted = 0;
    ExpectWriteBatchParity(
        *backend, approx::AllocSpec::Approx(t, kParityWords), &corrupted);
    if (t == 0.085) {
      EXPECT_LT(silent, words.size());
      EXPECT_GT(corrupted, 0u);
    }
  }
}

TEST(WriteModelBatchTest, SpintronicWriteBatchMatchesScalarWrites) {
  auto backend = MakeBackend(approx::kSpintronicBackendName);
  ASSERT_NE(backend, nullptr);
  uint64_t corrupted = 0;
  ExpectWriteBatchParity(
      *backend, approx::AllocSpec::Approx(1e-4, kParityWords), &corrupted);
  EXPECT_GT(corrupted, 0u);
}

void ExpectSameLedger(const approx::MemoryStats& a,
                      const approx::MemoryStats& b) {
  EXPECT_EQ(a.word_reads, b.word_reads);
  EXPECT_EQ(a.word_writes, b.word_writes);
  EXPECT_EQ(a.write_cost, b.write_cost);
  EXPECT_EQ(a.read_cost, b.read_cost);
  EXPECT_EQ(a.corrupted_writes, b.corrupted_writes);
  EXPECT_EQ(a.sequential_writes, b.sequential_writes);
  EXPECT_EQ(a.pv_iterations, b.pv_iterations);
}

// Scattered elements per run; the probe runs are stored after them.
constexpr size_t kScatterElems = 4096;

// Everything a paired scatter can touch, captured after the fact.
struct ScatterRun {
  std::vector<uint32_t> key_actual, id_actual;
  std::vector<bool> key_deviating, id_deviating;
  std::vector<approx::MemoryStats> stats;
  std::vector<AccessEvent> accesses;
  uint64_t injected_write_faults = 0;
  DeviceState device;
};

// An LSD-like scatter of random keys (with ids) from two stripes into
// per-(bucket, stripe) windows, so destinations mix sequential runs and
// jumps. `batched` drives Shard::ScatterPaired in blocks of varying size;
// otherwise the per-element interleaved Set loop it replaces. Each shard
// then writes a probe run past the scattered region, so the stored probe
// words show where the shard's stream stood after the scatter. An
// `observed` run adds a recording hook around a fault injector (which also
// listens at the banked device); otherwise the precise ids take the plain
// path.
ScatterRun RunStripedScatter(std::string_view backend, bool batched,
                             bool observed) {
  testing::FaultInjector injector(testing::FaultPlan::ApproxStorm(9));
  RecordingHook recorder(&injector);
  approx::ApproxMemory::Options options;
  options.backend = std::string(backend);
  options.calibration_trials = 5000;
  options.seed = 5;
  options.sequential_write_discount = 0.5;
  if (observed) options.fault_hook = &recorder;
  approx::ApproxMemory memory(options);
  if (observed && memory.backend().cost_system() != nullptr) {
    memory.backend().cost_system()->pcm().SetFaultListener(&injector);
  }

  constexpr size_t kN = kScatterElems;
  constexpr size_t kStripes = 2;
  constexpr uint32_t kBuckets = 8;
  constexpr size_t kProbe = 256;
  approx::ApproxArrayU32 keys =
      memory.NewApproxArray(kN + kStripes * kProbe, 0.085);
  approx::ApproxArrayU32 ids = memory.NewPreciseArray(kN + kStripes * kProbe);
  const std::vector<uint32_t> values = RandomWords(kN, 0x5ca77e2);

  std::vector<size_t> dest(kN);
  std::vector<size_t> count(kStripes * kBuckets, 0);
  for (size_t i = 0; i < kN; ++i) {
    ++count[(i * kStripes / kN) * kBuckets + (values[i] & (kBuckets - 1))];
  }
  std::vector<size_t> cursor(kStripes * kBuckets);
  size_t total = 0;
  for (uint32_t b = 0; b < kBuckets; ++b) {
    for (size_t s = 0; s < kStripes; ++s) {
      cursor[s * kBuckets + b] = total;
      total += count[s * kBuckets + b];
    }
  }
  for (size_t i = 0; i < kN; ++i) {
    dest[i] = cursor[(i * kStripes / kN) * kBuckets +
                     (values[i] & (kBuckets - 1))]++;
  }

  auto key_shards = keys.MakeShards(kStripes);
  auto id_shards = ids.MakeShards(kStripes);
  std::vector<uint32_t> id_values(kN);
  for (size_t i = 0; i < kN; ++i) id_values[i] = static_cast<uint32_t>(i);
  Rng block_sizes(17);
  for (size_t s = 0; s < kStripes; ++s) {
    const size_t begin = s * kN / kStripes;
    const size_t end = (s + 1) * kN / kStripes;
    for (size_t i = begin; i < end;) {
      const size_t m = std::min<size_t>(
          end - i, 1 + block_sizes.UniformInt(
                           approx::ApproxArrayU32::kScatterBlock));
      if (batched) {
        key_shards[s].ScatterPaired(&dest[i], &values[i], &id_shards[s],
                                    &id_values[i], m);
      } else {
        for (size_t k = i; k < i + m; ++k) {
          key_shards[s].Set(dest[k], values[k]);
          id_shards[s].Set(dest[k], id_values[k]);
        }
      }
      i += m;
    }
    for (size_t k = 0; k < kProbe; ++k) {
      key_shards[s].Set(kN + s * kProbe + k, values[k]);
      id_shards[s].Set(kN + s * kProbe + k, values[k]);
    }
  }

  ScatterRun run;
  for (size_t s = 0; s < kStripes; ++s) {
    run.stats.push_back(key_shards[s].stats());
    run.stats.push_back(id_shards[s].stats());
  }
  keys.MergeShards(key_shards);
  ids.MergeShards(id_shards);
  for (size_t i = 0; i < keys.size(); ++i) {
    run.key_actual.push_back(keys.PeekActual(i));
    run.key_deviating.push_back(keys.IsDeviating(i));
    run.id_actual.push_back(ids.PeekActual(i));
    run.id_deviating.push_back(ids.IsDeviating(i));
  }
  run.accesses = recorder.events();
  run.injected_write_faults = injector.injected_write_faults();
  run.device = CaptureDevice(memory.backend().cost_system());
  return run;
}

TEST(ScatterPairedTest, MatchesInterleavedSetLoop) {
  // On the banked model, both arrays share the device's cache and queue
  // state, so the paired scatter must charge it in the loop's key, id
  // order: the device ends in the same state.
  for (std::string_view backend :
       {approx::kPcmBackendName, approx::kBankedPcmBackendName}) {
    for (const bool observed : {true, false}) {
      SCOPED_TRACE(std::string(backend) + (observed ? " observed" : ""));
      const ScatterRun batched = RunStripedScatter(backend, true, observed);
      const ScatterRun loop = RunStripedScatter(backend, false, observed);
      EXPECT_EQ(batched.key_actual, loop.key_actual);
      EXPECT_EQ(batched.key_deviating, loop.key_deviating);
      EXPECT_EQ(batched.id_actual, loop.id_actual);
      EXPECT_EQ(batched.id_deviating, loop.id_deviating);
      ASSERT_EQ(batched.stats.size(), loop.stats.size());
      for (size_t k = 0; k < loop.stats.size(); ++k) {
        SCOPED_TRACE("ledger " + std::to_string(k));
        ExpectSameLedger(batched.stats[k], loop.stats[k]);
      }
      ExpectSameDevice(batched.device, loop.device);
      ASSERT_EQ(batched.accesses.size(), loop.accesses.size());
      for (size_t e = 0; e < loop.accesses.size(); ++e) {
        ASSERT_EQ(batched.accesses[e].address, loop.accesses[e].address) << e;
        ASSERT_EQ(batched.accesses[e].kind, loop.accesses[e].kind) << e;
      }
      EXPECT_EQ(batched.injected_write_faults, loop.injected_write_faults);
      // Not vacuous: the model corrupted words, the windows produced
      // sequential runs for the discount, the probe runs (which read the
      // streams' positions) hold corrupted words, the hook fired when
      // installed, and the banked device stalled on full queues.
      EXPECT_GT(loop.stats[0].corrupted_writes, 0u);
      EXPECT_GT(loop.stats[0].sequential_writes, 0u);
      size_t probe_corrupted = 0;
      for (size_t i = kScatterElems; i < loop.key_actual.size(); ++i) {
        probe_corrupted += loop.key_deviating[i];
      }
      EXPECT_GT(probe_corrupted, 0u);
      if (observed) {
        EXPECT_GT(loop.injected_write_faults, 0u);
      }
      if (backend == approx::kBankedPcmBackendName) {
        EXPECT_GT(loop.device.pcm.write_queue_full_events, 0u);
      }
    }
  }
}

// Everything a banked SetRange run can touch, captured after the fact.
struct RangeRun {
  std::vector<uint32_t> actual;
  std::vector<bool> deviating;
  approx::MemoryStats stats, other_stats;
  uint64_t injected_write_faults = 0;
  DeviceState device;
};

// Writes a fixed series of ranges (chained, empty, rewinding, longer than
// the 64-word batch chunk, page-crossing) into one banked array, with a
// read and a write to a second array on the same device between ranges.
// `ranged` drives SetRange; otherwise the Set loop it replaces.
RangeRun RunBankedRanges(bool precise, bool hooked, bool ranged) {
  testing::FaultInjector injector(testing::FaultPlan::ApproxStorm(9));
  approx::ApproxMemory::Options options;
  options.backend = std::string(approx::kBankedPcmBackendName);
  options.calibration_trials = 5000;
  options.seed = 5;
  options.sequential_write_discount = 0.5;
  if (hooked) options.fault_hook = &injector;
  approx::ApproxMemory memory(options);
  if (hooked) memory.backend().cost_system()->pcm().SetFaultListener(&injector);

  constexpr size_t kN = 3000;
  approx::ApproxArrayU32 array = precise ? memory.NewPreciseArray(kN)
                                         : memory.NewApproxArray(kN, 0.085);
  approx::ApproxArrayU32 other = memory.NewPreciseArray(kN);
  const std::vector<uint32_t> values = RandomWords(kN, 0x5e7a);
  const std::pair<size_t, size_t> pieces[] = {
      {0, 700}, {700, 1}, {701, 0}, {701, 130}, {100, 64}, {2000, 1000},
      {831, 500}};
  for (const auto& [start, count] : pieces) {
    if (ranged) {
      array.SetRange(start, &values[start], count);
    } else {
      for (size_t i = start; i < start + count; ++i) array.Set(i, values[i]);
    }
    other.Set(start, array.Get(start));
  }

  RangeRun run;
  for (size_t i = 0; i < kN; ++i) {
    run.actual.push_back(array.PeekActual(i));
    run.deviating.push_back(array.IsDeviating(i));
  }
  run.stats = array.stats();
  run.other_stats = other.stats();
  run.injected_write_faults = injector.injected_write_faults();
  run.device = CaptureDevice(memory.backend().cost_system());
  return run;
}

TEST(SetRangeTest, BankedRangesMatchSetLoop) {
  for (const bool precise : {true, false}) {
    for (const bool hooked : {false, true}) {
      SCOPED_TRACE(std::string(precise ? "precise" : "approx") +
                   (hooked ? " hooked" : ""));
      const RangeRun ranged = RunBankedRanges(precise, hooked, true);
      const RangeRun loop = RunBankedRanges(precise, hooked, false);
      EXPECT_EQ(ranged.actual, loop.actual);
      EXPECT_EQ(ranged.deviating, loop.deviating);
      ExpectSameLedger(ranged.stats, loop.stats);
      ExpectSameLedger(ranged.other_stats, loop.other_stats);
      EXPECT_EQ(ranged.injected_write_faults, loop.injected_write_faults);
      ExpectSameDevice(ranged.device, loop.device);
      // Not vacuous: sequential runs, full bank queues, and (approx)
      // corrupted words.
      EXPECT_GT(loop.stats.sequential_writes, 0u);
      EXPECT_GT(loop.device.pcm.write_queue_full_events, 0u);
      if (!precise) {
        EXPECT_GT(loop.stats.corrupted_writes, 0u);
      }
    }
  }
}

}  // namespace
}  // namespace approxmem
