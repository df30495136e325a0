// The intra-sort parallelism contract: for a fixed seed, the striped radix
// engine produces identical final keys/IDs, write counts, corruption
// counts, and cost ledgers at every sort_threads setting, on both the MLC
// PCM and spintronic backends. Only wall-clock may change with the thread
// count.
#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "common/hash.h"
#include "common/thread_pool.h"
#include "core/engine.h"
#include "core/workload.h"
#include "sort/sort_common.h"
#include "testing/fault_injection.h"
#include "access_stream.h"

namespace approxmem {
namespace {

// Large enough for several stripes (8192 / 2048 = 4), so parallel runs
// genuinely split the passes instead of inlining a single stripe.
constexpr size_t kN = 8192;

struct RunSummary {
  std::vector<uint32_t> keys;
  std::vector<uint32_t> ids;
  uint64_t approx_writes = 0;
  uint64_t approx_corrupted = 0;
  double approx_write_cost = 0.0;
  uint64_t refine_writes = 0;
  double total_write_cost = 0.0;
  size_t rem_estimate = 0;
  double write_reduction = 0.0;
};

RunSummary RunOnce(const std::string& backend, double knob,
                   const sort::AlgorithmId& algorithm, int sort_threads,
                   ThreadPool* sort_pool = nullptr) {
  core::EngineOptions options;
  options.backend = backend;
  options.seed = 77;
  options.calibration_trials = 5000;
  options.sort_threads = sort_threads;
  options.sort_pool = sort_pool;
  core::ApproxSortEngine engine(options);
  const auto input = core::MakeKeys(core::WorkloadKind::kUniform, kN, 7);

  RunSummary summary;
  const auto outcome = engine.SortApproxRefine(input, algorithm, knob,
                                               &summary.keys, &summary.ids);
  EXPECT_TRUE(outcome.ok()) << outcome.status().ToString();
  if (!outcome.ok()) return summary;
  EXPECT_TRUE(outcome->refine.verified());

  const approx::MemoryStats approx_side =
      outcome->refine.prep_approx + outcome->refine.sort_approx;
  summary.approx_writes = approx_side.word_writes;
  summary.approx_corrupted = approx_side.corrupted_writes;
  summary.approx_write_cost = approx_side.write_cost;
  summary.refine_writes = outcome->refine.RefineWriteOps();
  summary.total_write_cost = outcome->refine.TotalWriteCost();
  summary.rem_estimate = outcome->refine.rem_estimate;
  summary.write_reduction = outcome->write_reduction;
  return summary;
}

// Every comparison is exact — including the floating-point cost ledgers,
// which must accumulate in the same order regardless of thread count.
void ExpectIdentical(const RunSummary& serial, const RunSummary& parallel) {
  EXPECT_EQ(serial.keys, parallel.keys);
  EXPECT_EQ(serial.ids, parallel.ids);
  EXPECT_EQ(serial.approx_writes, parallel.approx_writes);
  EXPECT_EQ(serial.approx_corrupted, parallel.approx_corrupted);
  EXPECT_EQ(serial.approx_write_cost, parallel.approx_write_cost);
  EXPECT_EQ(serial.refine_writes, parallel.refine_writes);
  EXPECT_EQ(serial.total_write_cost, parallel.total_write_cost);
  EXPECT_EQ(serial.rem_estimate, parallel.rem_estimate);
  EXPECT_EQ(serial.write_reduction, parallel.write_reduction);
}

TEST(SortThreadsDeterminismTest, MatrixIdenticalAcrossThreadCounts) {
  const struct {
    const char* backend;
    double knob;
  } backends[] = {{"mlc-pcm", 0.07}, {"spintronic", 1e-5}};
  const sort::AlgorithmId algorithms[] = {
      {sort::SortKind::kLsdRadix, 3},
      {sort::SortKind::kLsdHistogram, 6},
  };

  for (const auto& b : backends) {
    for (const sort::AlgorithmId& algorithm : algorithms) {
      const RunSummary serial =
          RunOnce(b.backend, b.knob, algorithm, /*sort_threads=*/1);
      // The operating points are hot enough that corruption actually
      // happens — the parity below is not vacuous.
      EXPECT_GT(serial.approx_corrupted, 0u) << b.backend;
      // 0 = hardware concurrency, whatever that is on the CI host.
      for (const int threads : {2, 4, 8, 0}) {
        std::ostringstream label;
        label << b.backend << " " << algorithm.Name()
              << " sort_threads=" << threads;
        SCOPED_TRACE(label.str());
        ExpectIdentical(serial,
                        RunOnce(b.backend, b.knob, algorithm, threads));
      }
    }
  }
}

TEST(SortThreadsDeterminismTest, ExternalPoolMatchesOwnedPool) {
  const sort::AlgorithmId algorithm{sort::SortKind::kLsdRadix, 3};
  const RunSummary serial =
      RunOnce("mlc-pcm", 0.07, algorithm, /*sort_threads=*/1);
  ThreadPool pool(4);
  ExpectIdentical(serial, RunOnce("mlc-pcm", 0.07, algorithm,
                                  /*sort_threads=*/1, &pool));
}

uint64_t DigestStats(uint64_t hash, const approx::MemoryStats& stats) {
  const double doubles[] = {stats.write_cost, stats.read_cost,
                            stats.pv_iterations};
  hash = Fnv1a64(doubles, sizeof(doubles), hash);
  for (const uint64_t counter :
       {stats.word_reads, stats.word_writes, stats.corrupted_writes,
        stats.sequential_writes, stats.degraded_regions}) {
    hash = Fnv1a64Word(hash, counter);
  }
  return hash;
}

// One approx-refine run with IDs, digested over everything a fault hook
// can observe: outputs, every ledger, the injector's decisions, and the
// ordered access stream. `hooked` attaches an approx-domain fault storm
// inside a recording hook (both empty otherwise).
uint64_t PinnedRunDigest(const sort::AlgorithmId& algorithm, int sort_threads,
                         bool hooked) {
  testing::FaultInjector injector(testing::FaultPlan::ApproxStorm(0x5eed));
  RecordingHook recorder(&injector);
  core::EngineOptions options;
  options.seed = 77;
  options.calibration_trials = 5000;
  options.sort_threads = sort_threads;
  if (hooked) options.fault_hook = &recorder;
  core::ApproxSortEngine engine(options);
  const auto input = core::MakeKeys(core::WorkloadKind::kUniform, kN, 7);
  std::vector<uint32_t> keys;
  std::vector<uint32_t> ids;
  const auto outcome =
      engine.SortApproxRefine(input, algorithm, 0.07, &keys, &ids);
  EXPECT_TRUE(outcome.ok()) << outcome.status().ToString();
  if (!outcome.ok()) return 0;
  EXPECT_TRUE(outcome->refine.verified());
  if (hooked) {
    EXPECT_GT(injector.injected_write_faults(), 0u);
  }

  const refine::RefineReport& r = outcome->refine;
  uint64_t hash = Fnv1a64(keys.data(), keys.size() * sizeof(keys[0]));
  hash = Fnv1a64(ids.data(), ids.size() * sizeof(ids[0]), hash);
  for (const approx::MemoryStats* stats :
       {&r.prep_approx, &r.prep_precise, &r.sort_approx, &r.sort_precise,
        &r.refine_precise}) {
    hash = DigestStats(hash, *stats);
  }
  hash = Fnv1a64Word(hash, r.rem_estimate);
  for (const uint64_t counter :
       {injector.writes_seen(), injector.reads_seen(),
        injector.injected_write_faults(), injector.injected_read_faults()}) {
    hash = Fnv1a64Word(hash, counter);
  }
  for (const AccessEvent& event : recorder.events()) {
    hash = Fnv1a64Word(hash, event.address);
    hash = Fnv1a64Word(hash, static_cast<uint64_t>(event.kind));
  }
  return hash;
}

// The lsd3 and hlsd3 digests were captured from the per-element key, id,
// key, id Set scatter. Hooked arrays are not shard-safe, so their striped
// passes run serially and the block scatter must hand the hook every write
// in that loop's order; unhooked runs go concurrent at four threads.
// hlsd4 runs eight passes, so it ends without the parity copy that hlsd3's
// eleven need. msd3 and hmsd3 pin the MSD segment loops, which do not
// stripe. Any reordering of draws or hook calls moves a digest.
TEST(StripedSortPinTest, DigestsMatchThePerElementScatter) {
  const sort::AlgorithmId lsd3{sort::SortKind::kLsdRadix, 3};
  const sort::AlgorithmId hlsd3{sort::SortKind::kLsdHistogram, 3};
  const sort::AlgorithmId hlsd4{sort::SortKind::kLsdHistogram, 4};
  const sort::AlgorithmId msd3{sort::SortKind::kMsdRadix, 3};
  const sort::AlgorithmId hmsd3{sort::SortKind::kMsdHistogram, 3};
  const struct {
    sort::AlgorithmId algorithm;
    bool hooked;
    uint64_t digest;
  } pins[] = {
      {lsd3, true, 0xf2ba430f5b54884dULL},
      {hlsd3, true, 0x6aafa85a7aaa00e9ULL},
      {hlsd4, true, 0x119c54cba90ae833ULL},
      {msd3, true, 0xda83240f01f41296ULL},
      {hmsd3, true, 0x8a12e5f53aba6116ULL},
      {lsd3, false, 0x3875dfc4e694ccecULL},
      {hlsd3, false, 0xc51379a9a5ab8bc2ULL},
      {hlsd4, false, 0x37319cf82659e1afULL},
      {msd3, false, 0x90696f3fb7fa7526ULL},
      {hmsd3, false, 0x64c149b7fb91a291ULL},
  };
  for (const auto& pin : pins) {
    for (const int threads : {1, 4}) {
      SCOPED_TRACE(pin.algorithm.Name() + (pin.hooked ? " hooked" : "") +
                   " sort_threads=" + std::to_string(threads));
      const uint64_t digest =
          PinnedRunDigest(pin.algorithm, threads, pin.hooked);
      EXPECT_EQ(digest, pin.digest);
    }
  }
}

}  // namespace
}  // namespace approxmem
