// Tests for the memory-technology backend layer: the built-in table,
// per-backend end-to-end smoke sorts, and the facade-level features
// (sequential-write discount, fault hooks) that must behave uniformly
// across every backend because they live above the WriteModel.
#include "approx/memory_backend.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include <gtest/gtest.h>

#include "approx/approx_memory.h"
#include "approx/fault_hook.h"
#include "common/thread_pool.h"
#include "core/engine.h"
#include "core/resilience.h"
#include "core/workload.h"
#include "mem/memory_system.h"
#include "mlc/calibration.h"
#include "sort/sort_common.h"
#include "access_stream.h"

namespace approxmem::approx {
namespace {

TEST(BackendRegistryTest, BuiltInsAreRegistered) {
  const std::vector<std::string> names = RegisteredBackendNames();
  for (const std::string_view expected :
       {kPcmBackendName, kBankedPcmBackendName, kSpintronicBackendName,
        kDramPreciseBackendName}) {
    EXPECT_TRUE(IsRegisteredBackend(expected)) << expected;
    EXPECT_NE(std::find(names.begin(), names.end(), std::string(expected)),
              names.end())
        << expected;
  }
  EXPECT_TRUE(std::is_sorted(names.begin(), names.end()));
  EXPECT_FALSE(IsRegisteredBackend("no-such-technology"));
}

TEST(BackendRegistryTest, UnknownNameIsACleanStatus) {
  const auto backend = CreateMemoryBackend("memristive", BackendContext{});
  ASSERT_FALSE(backend.ok());
  EXPECT_NE(backend.status().ToString().find("memristive"), std::string::npos);
  // The diagnostic lists what IS registered, so the fix is self-evident.
  EXPECT_NE(backend.status().ToString().find(std::string(kPcmBackendName)),
            std::string::npos);
}

// The CLI, the benches, SortService::RegisterTenant and CreateMemoryBackend
// all report an unknown name with CheckBackendName's one status, which
// lists every built-in.
TEST(BackendRegistryTest, UnknownNameStatusListsEveryBuiltIn) {
  const Status status = CheckBackendName("memristive");
  ASSERT_FALSE(status.ok());
  const auto backend = CreateMemoryBackend("memristive", BackendContext{});
  ASSERT_FALSE(backend.ok());
  EXPECT_EQ(backend.status().ToString(), status.ToString());
  for (const std::string& name : RegisteredBackendNames()) {
    EXPECT_TRUE(CheckBackendName(name).ok()) << name;
    EXPECT_NE(status.ToString().find(name), std::string::npos) << name;
  }
  EXPECT_EQ(RegisteredBackendNames().size(), 4u);
}

// The backend table is immutable and takes no lock, and engines are built
// on shard threads (SortService::EngineFor), so every built-in must be
// creatable from many threads at once over one shared calibration cache,
// and each concurrently built backend must match a serially built one.
TEST(BackendRegistryTest, CreatesEveryBackendFromManyThreads) {
  BackendContext context;
  context.calibration = std::make_shared<mlc::CalibrationCache>(
      context.mlc.WithT(context.mlc.precise_t_width), 2000,
      context.calibration_seed);
  const std::vector<std::string> names = RegisteredBackendNames();
  constexpr size_t kRounds = 4;
  struct Built {
    std::string name;
    PreciseCosts costs;
    double ratio = 0.0;
    bool has_device = false;
  };
  const auto build = [&context](const std::string& name) {
    StatusOr<std::unique_ptr<MemoryBackend>> backend =
        CreateMemoryBackend(name, context);
    Built built;
    if (!backend.ok()) return built;
    MemoryBackend& b = **backend;
    built.name = std::string(b.name());
    built.costs = b.precise_costs();
    built.ratio = b.WriteCostRatio(b.default_approx_knob());
    built.has_device = b.cost_system() != nullptr;
    return built;
  };
  std::vector<Built> concurrent(names.size() * kRounds);
  {
    ThreadPool pool(4);
    pool.ParallelFor(0, concurrent.size(), [&](size_t i) {
      concurrent[i] = build(names[i % names.size()]);
    });
  }
  for (size_t i = 0; i < concurrent.size(); ++i) {
    const std::string& name = names[i % names.size()];
    SCOPED_TRACE(name);
    const Built serial = build(name);
    EXPECT_EQ(concurrent[i].name, name);
    EXPECT_EQ(concurrent[i].costs.write, serial.costs.write);
    EXPECT_EQ(concurrent[i].costs.pv, serial.costs.pv);
    EXPECT_EQ(concurrent[i].costs.read, serial.costs.read);
    EXPECT_EQ(concurrent[i].ratio, serial.ratio);
    EXPECT_EQ(concurrent[i].has_device, name == kBankedPcmBackendName);
  }
}

TEST(BackendContractTest, KnobConstantsAreCoherent) {
  BackendContext context;
  context.calibration_trials = 2000;
  for (const std::string& name : RegisteredBackendNames()) {
    auto backend = CreateMemoryBackend(name, context);
    ASSERT_TRUE(backend.ok()) << name;
    MemoryBackend& b = **backend;
    EXPECT_FALSE(b.name().empty());
    EXPECT_FALSE(b.cost_unit().empty());
    // The ladder floor and the default operating point must be servable.
    EXPECT_TRUE(b.Validate(AllocSpec::Approx(b.min_knob(), 100)).ok())
        << name;
    EXPECT_TRUE(
        b.Validate(AllocSpec::Approx(b.default_approx_knob(), 100)).ok())
        << name;
    EXPECT_TRUE(b.Validate(AllocSpec::Precise(100)).ok()) << name;
    // Approximation must not be costlier than precision at the default knob.
    EXPECT_LE(b.WriteCostRatio(b.default_approx_knob()), 1.0) << name;
    EXPECT_GT(b.WriteCostRatio(b.default_approx_knob()), 0.0) << name;
  }
}

// Each backend's precise domain is one constant: what the precise write
// models it replaces returned (PCM: the Table 1 write latency, the precise
// T's calibrated avg #P in every cell and the read latency; spintronic: unit
// write energy, no #P and the paper's read energy; DRAM: a flat 50 ns). No
// backend hands out a model for a precise spec, and dram-precise for none.
TEST(MemoryBackendTest, PreciseCostsArePinnedPerBackend) {
  BackendContext context;
  context.calibration = std::make_shared<mlc::CalibrationCache>(
      context.mlc.WithT(context.mlc.precise_t_width), 2000,
      context.calibration_seed);
  const double pcm_pv =
      context.calibration->ForT(context.mlc.precise_t_width).AvgPv() *
      context.mlc.CellsPerWord();
  ASSERT_GT(pcm_pv, 0.0);
  const PreciseCosts pcm{context.mlc.precise_write_latency_ns, pcm_pv,
                         context.mlc.read_latency_ns};
  const struct {
    std::string_view name;
    std::string_view unit;
    PreciseCosts costs;
  } expected[] = {{kPcmBackendName, "ns", pcm},
                  {kBankedPcmBackendName, "ns", pcm},
                  {kSpintronicBackendName, "energy", {1.0, 0.0, 0.05}},
                  {kDramPreciseBackendName, "ns", {50.0, 0.0, 50.0}}};
  const std::vector<uint32_t> probes = {0u, 1u, 0x80000000u, 0x12345678u,
                                        0xffffffffu, 0x0f0f0f0fu};
  for (const auto& [name, unit, costs] : expected) {
    SCOPED_TRACE(std::string(name));
    auto backend = CreateMemoryBackend(name, context);
    ASSERT_TRUE(backend.ok());
    EXPECT_EQ((*backend)->cost_unit(), unit);
    const PreciseCosts got = (*backend)->precise_costs();
    EXPECT_EQ(got.write, costs.write);
    EXPECT_EQ(got.pv, costs.pv);
    EXPECT_EQ(got.read, costs.read);
    StatusOr<WriteModel*> model = (*backend)->ModelFor(AllocSpec::Precise(1));
    ASSERT_TRUE(model.ok());
    EXPECT_EQ(*model, nullptr);
    model = (*backend)->ModelFor(
        AllocSpec::Approx((*backend)->default_approx_knob(), 1));
    ASSERT_TRUE(model.ok());
    EXPECT_EQ(*model == nullptr, name == kDramPreciseBackendName);
  }
}

// The precise-word contract ApproxArrayU32's plain path relies on: on every
// backend, banked ones included, a precise array stores what it is given at
// the backend's precise_costs() per word, whatever the value, draws nothing
// from its Rng, and charges a banked device one write per array write.
TEST(BackendContractTest, PreciseFlatModelsStoreAtFixedCostWithoutDrawing) {
  const std::vector<uint32_t> probes = {0u, 1u, 0x80000000u, 0x12345678u,
                                        0xffffffffu, 0x0f0f0f0fu};
  size_t checked = 0;
  for (const std::string& name : RegisteredBackendNames()) {
    SCOPED_TRACE(name);
    ApproxMemory::Options options;
    options.backend = name;
    options.calibration_trials = 2000;
    ApproxMemory memory(options);
    const PreciseCosts costs = memory.backend().precise_costs();
    const mem::MemorySystem* device = memory.backend().cost_system();
    ++checked;

    // One word at a time: every write books the same cost and #P.
    ApproxArrayU32 scalar = memory.NewPreciseArray(probes.size());
    ASSERT_TRUE(scalar.precise());
    const Rng scalar_before = scalar.rng();
    for (size_t i = 0; i < probes.size(); ++i) {
      scalar.Set(i, probes[i]);
      EXPECT_EQ(scalar.stats().word_writes, i + 1);
      EXPECT_DOUBLE_EQ(scalar.stats().pv_iterations, costs.pv * (i + 1));
      if (device == nullptr) {
        EXPECT_DOUBLE_EQ(scalar.stats().write_cost, costs.write * (i + 1));
      }
    }
    EXPECT_EQ(scalar.Snapshot(), probes);
    EXPECT_TRUE(scalar.rng() == scalar_before);

    // A range write stores and books the same.
    const uint64_t device_writes =
        device != nullptr ? device->pcm().Stats().writes : 0;
    ApproxArrayU32 array = memory.NewPreciseArray(probes.size());
    const Rng before = array.rng();
    array.SetRange(0, probes.data(), probes.size());
    EXPECT_EQ(array.Snapshot(), probes);
    EXPECT_EQ(array.stats().word_writes, probes.size());
    EXPECT_DOUBLE_EQ(array.stats().pv_iterations, costs.pv * probes.size());
    EXPECT_TRUE(array.rng() == before);
    if (device != nullptr) {
      EXPECT_EQ(device->pcm().Stats().writes - device_writes, probes.size());
    } else {
      EXPECT_EQ(array.stats().write_cost, costs.write * probes.size());
      EXPECT_EQ(array.Get(0), probes[0]);
      EXPECT_EQ(array.stats().read_cost, costs.read);
    }
  }
  // mlc-pcm, mlc-pcm-banked, spintronic, dram-precise.
  EXPECT_GE(checked, 4u);
}

// Every registered backend must drive the full approx-refine pipeline to a
// verified, exactly sorted output with a nonzero cost ledger — the backend
// interface is only useful if a backend is a drop-in for the whole engine.
TEST(BackendSmokeTest, EveryBackendSortsExactlyThroughRefine) {
  const auto keys = core::MakeKeys(core::WorkloadKind::kUniform, 4000, 77);
  std::vector<uint32_t> golden = keys;
  std::sort(golden.begin(), golden.end());
  for (const std::string& name : RegisteredBackendNames()) {
    core::EngineOptions options;
    options.backend = name;
    options.seed = 7;
    options.calibration_trials = 5000;
    core::ApproxSortEngine engine(options);
    const double knob = engine.memory().backend().default_approx_knob();
    std::vector<uint32_t> out_keys;
    const auto outcome = engine.SortApproxRefine(
        keys, sort::AlgorithmId{sort::SortKind::kLsdRadix, 3}, knob,
        &out_keys);
    ASSERT_TRUE(outcome.ok()) << name;
    EXPECT_TRUE(outcome->refine.verified()) << name;
    EXPECT_EQ(out_keys, golden) << name;
    EXPECT_GT(outcome->refine.TotalWriteCost(), 0.0) << name;
    EXPECT_GT(outcome->baseline.TotalWriteCost(), 0.0) << name;
  }
}

// The resilient ladder must work on every backend too: with min_t left at
// its NaN sentinel the escalation floor comes from the backend itself.
TEST(BackendSmokeTest, EveryBackendSortsThroughTheResilientLadder) {
  const auto keys = core::MakeKeys(core::WorkloadKind::kUniform, 2000, 78);
  for (const std::string& name : RegisteredBackendNames()) {
    core::EngineOptions options;
    options.backend = name;
    options.seed = 8;
    options.calibration_trials = 5000;
    options.health.enabled = true;
    core::ApproxSortEngine engine(options);
    const double knob = engine.memory().backend().default_approx_knob();
    const auto report = core::SortResilient(
        engine, keys, sort::AlgorithmId{sort::SortKind::kQuicksort, 0}, knob);
    ASSERT_TRUE(report.ok()) << name;
    EXPECT_TRUE(report->verified) << name;
    EXPECT_GE(report->attempts.size(), 1u) << name;
  }
}

// --- Facade-uniformity pinning tests (sequential discount, fault hook) ---
//
// These features are implemented once, in ApproxArrayU32/ApproxMemory,
// *above* the WriteModel — so they must behave identically whichever
// backend serves the allocation.

double SequentialStoreCost(const std::string& backend, double discount,
                           size_t n) {
  ApproxMemory::Options options;
  options.backend = backend;
  options.seed = 99;
  options.calibration_trials = 2000;
  options.sequential_write_discount = discount;
  ApproxMemory memory(options);
  ApproxArrayU32 array =
      memory.NewApproxArray(n, memory.backend().default_approx_knob());
  for (size_t i = 0; i < n; ++i) array.Set(i, static_cast<uint32_t>(i));
  EXPECT_EQ(array.stats().sequential_writes, n - 1) << backend;
  return array.stats().write_cost;
}

TEST(BackendUniformityTest, SequentialWriteDiscountAppliesOnEveryBackend) {
  for (const std::string& name : RegisteredBackendNames()) {
    const size_t n = 512;
    const double full = SequentialStoreCost(name, 1.0, n);
    const double half = SequentialStoreCost(name, 0.5, n);
    // Identical seeds -> identical per-write base costs; only the discount
    // differs. The first write is never sequential, so the discounted run
    // costs more than half the undiscounted one but strictly less than it.
    EXPECT_LT(half, full) << name;
    EXPECT_GE(half, 0.5 * full) << name;
  }
}

// Forces every approximate store to a sentinel and counts calls, proving
// the hook sits below the model on all backends (including precise-only
// ones, where the "approximate" domain is served precisely).
class SentinelHook : public MemoryFaultHook {
 public:
  uint32_t OnWrite(uint64_t, bool, uint32_t, uint32_t) override {
    ++writes_;
    return 0xDEADBEEFu;
  }
  uint32_t OnRead(uint64_t, bool, uint32_t value) override {
    ++reads_;
    return value;
  }
  uint64_t writes() const { return writes_; }
  uint64_t reads() const { return reads_; }

 private:
  uint64_t writes_ = 0;
  uint64_t reads_ = 0;
};

TEST(BackendUniformityTest, FaultHookObservesEveryAccessOnEveryBackend) {
  for (const std::string& name : RegisteredBackendNames()) {
    SentinelHook hook;
    ApproxMemory::Options options;
    options.backend = name;
    options.seed = 100;
    options.calibration_trials = 2000;
    options.fault_hook = &hook;
    ApproxMemory memory(options);
    const size_t n = 64;
    ApproxArrayU32 array =
        memory.NewApproxArray(n, memory.backend().default_approx_knob());
    for (size_t i = 0; i < n; ++i) array.Set(i, static_cast<uint32_t>(i));
    for (size_t i = 0; i < n; ++i) {
      EXPECT_EQ(array.Get(i), 0xDEADBEEFu) << name << " @" << i;
    }
    EXPECT_EQ(hook.writes(), n) << name;
    EXPECT_EQ(hook.reads(), n) << name;
  }
}

// A banked write books its flat outcome cost plus the CPU stall its
// posting caused at the shared device (MemorySystem::ChargedWrite), on the
// plain path and on the model path alike.
TEST(BankedBackendTest, WritesBookTheirCostPlusTheirStall) {
  ApproxMemory::Options options;
  options.calibration_trials = 2000;
  options.backend = std::string(kPcmBackendName);
  ApproxMemory flat(options);
  ApproxArrayU32 probe = flat.NewPreciseArray(1);
  probe.Set(0, 0);
  const double flat_cost = probe.stats().write_cost;

  options.backend = std::string(kBankedPcmBackendName);
  for (const bool hooked : {false, true}) {
    SentinelHook hook;
    if (hooked) options.fault_hook = &hook;
    ApproxMemory memory(options);
    const mem::PcmSimulator& pcm = memory.backend().cost_system()->pcm();
    // One page, one bank: the 32-entry write queue fills and stalls.
    ApproxArrayU32 array = memory.NewPreciseArray(256);
    double expected = 0.0;
    for (size_t i = 0; i < array.size(); ++i) {
      const double stall_before = pcm.Stats().write_stall_ns;
      array.Set(i, static_cast<uint32_t>(i));
      expected += flat_cost + (pcm.Stats().write_stall_ns - stall_before);
    }
    EXPECT_EQ(array.stats().write_cost, expected) << hooked;
    EXPECT_GT(pcm.Stats().write_stall_ns, 0.0) << hooked;
    EXPECT_EQ(pcm.Stats().writes, array.size()) << hooked;
    EXPECT_EQ(hook.writes(), hooked ? array.size() : 0u);
  }
}

// Sorts `keys` with ids in the precise domain of `memory`.
void PreciseSortWithIds(ApproxMemory& memory,
                        const std::vector<uint32_t>& keys,
                        const sort::AlgorithmId& algorithm) {
  ApproxArrayU32 key_array = memory.NewPreciseArray(keys.size());
  key_array.Store(keys);
  ApproxArrayU32 ids = memory.NewPreciseArray(keys.size());
  for (size_t i = 0; i < keys.size(); ++i) {
    ids.Set(i, static_cast<uint32_t>(i));
  }
  sort::SortSpec spec;
  spec.keys = &key_array;
  spec.ids = &ids;
  spec.alloc_key_buffer = [&memory](size_t n) {
    return memory.NewPreciseArray(n);
  };
  spec.alloc_id_buffer = spec.alloc_key_buffer;
  Rng rng(9);
  ASSERT_TRUE(sort::RunSort(spec, algorithm, rng).ok());
  const std::vector<uint32_t> sorted = key_array.Snapshot();
  EXPECT_TRUE(std::is_sorted(sorted.begin(), sorted.end()));
}

// The banked backend is the paper's trace-driven simulation run inline: its
// device ends in the state of a fresh Table 1 memory system fed, through
// Read and Write, the access stream the same sort makes on the flat
// backend.
TEST(BankedBackendTest, MatchesReplayOfTheAccessStream) {
  const std::vector<uint32_t> keys =
      core::MakeKeys(core::WorkloadKind::kUniform, 20000, 21);
  for (const sort::AlgorithmId& algorithm :
       {sort::AlgorithmId{sort::SortKind::kQuicksort, 0},
        sort::AlgorithmId{sort::SortKind::kMergesort, 0},
        sort::AlgorithmId{sort::SortKind::kLsdRadix, 3}}) {
    SCOPED_TRACE(algorithm.Name());
    RecordingHook recorder;
    ApproxMemory::Options options;
    options.calibration_trials = 2000;
    options.seed = 21;
    options.fault_hook = &recorder;
    ApproxMemory flat(options);
    PreciseSortWithIds(flat, keys, algorithm);
    ASSERT_GT(recorder.events().size(), 4 * keys.size());
    mem::MemorySystem replay = mem::MemorySystem::PaperDefault();
    for (const AccessEvent& event : recorder.events()) {
      if (event.kind == mem::AccessKind::kRead) {
        replay.Read(event.address);
      } else {
        replay.Write(event.address);
      }
    }

    options.fault_hook = nullptr;  // The banked arrays take the plain path.
    options.backend = std::string(kBankedPcmBackendName);
    ApproxMemory banked(options);
    PreciseSortWithIds(banked, keys, algorithm);
    ExpectSameDevice(CaptureDevice(banked.backend().cost_system()),
                     CaptureDevice(&replay));
  }
}

// Every array access reaches the shared banked device exactly once, so the
// device's counts equal the arrays' ledgers plus the loads the ledgers
// leave out on purpose; inside the device, the cache levels and PCM
// conserve them.
TEST(BankedBackendTest, DeviceConservesEveryArrayAccess) {
  const size_t n = 20000;
  const std::vector<uint32_t> keys =
      core::MakeKeys(core::WorkloadKind::kUniform, n, 22);
  for (const sort::AlgorithmId& algorithm :
       {sort::AlgorithmId{sort::SortKind::kQuicksort, 0},
        sort::AlgorithmId{sort::SortKind::kLsdRadix, 3},
        sort::AlgorithmId{sort::SortKind::kMsdHistogram, 3}}) {
    SCOPED_TRACE(algorithm.Name());
    core::EngineOptions options;
    options.backend = std::string(kBankedPcmBackendName);
    options.calibration_trials = 5000;
    options.seed = 22;
    core::ApproxSortEngine engine(options);
    const auto outcome = engine.SortApproxRefine(keys, algorithm, 0.055);
    ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
    ASSERT_TRUE(outcome->refine.verified());
    MemoryStats arrays = outcome->refine.TotalStats();
    arrays += outcome->baseline.keys;
    arrays += outcome->baseline.ids;

    mem::MemorySystem& device = *engine.memory().backend().cost_system();
    const mem::MemorySystemStats stats = device.Finish();
    EXPECT_EQ(stats.reads, arrays.word_reads);
    // Loading the given input into Key0 and ID, and into the baseline's key
    // and id arrays, reaches the device but not the ledgers: 4n writes.
    EXPECT_EQ(stats.writes, arrays.word_writes + 4 * n);
    EXPECT_EQ(stats.l1_read_hits + stats.l2_read_hits + stats.l3_read_hits +
                  stats.memory_reads,
              stats.reads);
    EXPECT_EQ(device.pcm().Stats().reads, stats.memory_reads);
    EXPECT_EQ(device.pcm().Stats().writes, stats.writes);
  }
}

// The health monitor's canary arrays are built by ApproxMemory like any
// other, so their probes reach the shared device too: with monitoring on,
// the device counts the arrays' ledgers plus the monitor's canary ledger
// plus the 4n unledgered input loads, exactly.
TEST(BankedBackendTest, HealthProbesReachTheDevice) {
  const size_t n = 20000;
  const std::vector<uint32_t> keys =
      core::MakeKeys(core::WorkloadKind::kUniform, n, 23);
  core::EngineOptions options;
  options.backend = std::string(kBankedPcmBackendName);
  options.calibration_trials = 5000;
  options.seed = 23;
  options.health.enabled = true;
  core::ApproxSortEngine engine(options);
  const auto outcome = engine.SortApproxRefine(
      keys, sort::AlgorithmId{sort::SortKind::kLsdRadix, 3}, 0.055);
  ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
  ASSERT_TRUE(outcome->refine.verified());
  MemoryStats arrays = outcome->refine.TotalStats();
  arrays += outcome->baseline.keys;
  arrays += outcome->baseline.ids;
  const MemoryStats& canaries =
      engine.memory().health().stats().canary_costs;
  ASSERT_GT(canaries.word_writes, 0u);
  ASSERT_GT(canaries.word_reads, 0u);

  const mem::MemorySystemStats stats =
      engine.memory().backend().cost_system()->Finish();
  EXPECT_EQ(stats.reads, arrays.word_reads + canaries.word_reads);
  EXPECT_EQ(stats.writes, arrays.word_writes + canaries.word_writes + 4 * n);
}

}  // namespace
}  // namespace approxmem::approx
