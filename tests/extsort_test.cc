#include "extsort/external_sort.h"

#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "common/thread_pool.h"
#include "core/workload.h"
#include "extsort/async_device.h"

namespace approxmem::extsort {
namespace {

class ExternalSortTest : public ::testing::Test {
 protected:
  ExternalSortTest() : engine_(MakeOptions()) {}

  static core::EngineOptions MakeOptions() {
    core::EngineOptions options;
    options.calibration_trials = 20000;
    options.seed = 17;
    return options;
  }

  /// Stages `input` on a fresh device (ResetClock afterwards, so the sort's
  /// virtual timeline starts at zero), sorts it, and returns the report.
  ExternalSortReport MustSort(const std::vector<uint32_t>& input,
                              const ExternalSortOptions& options,
                              ThreadPool* pool = nullptr,
                              core::ApproxSortEngine* engine = nullptr,
                              std::unique_ptr<AsyncDevice>* device_out =
                                  nullptr) {
    auto device = std::make_unique<AsyncDevice>(AsyncDeviceConfig(), pool);
    const int input_file = device->CreateFile();
    device->Wait(device->SubmitWrite(input_file, input, 0.0));
    device->ResetClock();
    int output_file = -1;
    const auto report =
        ExternalSort(engine != nullptr ? *engine : engine_, *device,
                     input_file, options, &output_file);
    EXPECT_TRUE(report.ok()) << report.status().ToString();
    EXPECT_GE(output_file, 0);
    if (report.ok() && options.verify) {
      EXPECT_EQ(device->FileSize(output_file),
                input.size() * (options.record_payloads ? 2 : 1));
    }
    if (device_out != nullptr) *device_out = std::move(device);
    return report.ok() ? report.value() : ExternalSortReport{};
  }

  /// Budget granting exactly `elements`-sized runs.
  static size_t BudgetFor(size_t elements) {
    return elements * kRunFootprintBytesPerElement;
  }

  core::ApproxSortEngine engine_;
};

TEST_F(ExternalSortTest, SingleRunWhenInputFits) {
  const auto input = core::MakeKeys(core::WorkloadKind::kUniform, 5000, 1);
  ExternalSortOptions options;
  options.memory_budget_bytes = BudgetFor(10000);
  const ExternalSortReport report = MustSort(input, options);
  EXPECT_TRUE(report.verified);
  EXPECT_EQ(report.initial_runs, 1u);
  EXPECT_EQ(report.merge_passes, 0u);
  EXPECT_EQ(report.bytes_spilled, 0u);
  // A single run is read-sort-write with nothing to overlap: the pipeline
  // must degrade to exactly serial, not better and not worse.
  EXPECT_NEAR(report.Total().OverlapRatio(), 1.0, 1e-9);
}

TEST_F(ExternalSortTest, MultiRunSinglePassOverlapsIoWithCompute) {
  const auto input = core::MakeKeys(core::WorkloadKind::kUniform, 40000, 2);
  ExternalSortOptions options;
  options.memory_budget_bytes = BudgetFor(8000);
  const ExternalSortReport report = MustSort(input, options);
  EXPECT_TRUE(report.verified);
  EXPECT_EQ(report.initial_runs, 5u);
  EXPECT_EQ(report.merge_passes, 1u);
  // With >= 2 runs, run k+1's prefetch always hides under run k's sort on
  // the virtual timeline — the bench/CI hard gate, asserted here at unit
  // scale.
  EXPECT_GT(report.run_formation.OverlapRatio(), 1.0);
  // One spill generation: every element written once beyond the output.
  EXPECT_EQ(report.bytes_spilled, input.size() * 4);
}

TEST_F(ExternalSortTest, MultiPassWhenRunsExceedFanIn) {
  const auto input = core::MakeKeys(core::WorkloadKind::kUniform, 20000, 3);
  ExternalSortOptions options;
  options.run_elements = 2000;  // 10 runs.
  options.merge_fan_in = 3;     // 10 -> 4 -> 2 -> 1: 3 passes.
  const ExternalSortReport report = MustSort(input, options);
  EXPECT_TRUE(report.verified);
  EXPECT_EQ(report.initial_runs, 10u);
  EXPECT_EQ(report.merge_passes, 3u);
  // Spill generations: initial runs + 2 intermediate passes.
  EXPECT_EQ(report.bytes_spilled, 3 * input.size() * 4);
}

TEST_F(ExternalSortTest, EmptyAndTinyInputs) {
  for (size_t n : {size_t{0}, size_t{1}, size_t{3}}) {
    const auto input = core::MakeKeys(core::WorkloadKind::kUniform, n, 4);
    ExternalSortOptions options;
    options.memory_budget_bytes = BudgetFor(2);
    const ExternalSortReport report = MustSort(input, options);
    EXPECT_TRUE(report.verified) << "n=" << n;
    EXPECT_EQ(report.n, n);
  }
}

TEST_F(ExternalSortTest, PreciseModeAlsoSorts) {
  const auto input = core::MakeKeys(core::WorkloadKind::kSkewed, 30000, 5);
  ExternalSortOptions options;
  options.memory_budget_bytes = BudgetFor(7000);
  options.use_approx_refine = false;
  const ExternalSortReport report = MustSort(input, options);
  EXPECT_TRUE(report.verified);
  EXPECT_EQ(report.total_rem, 0u);
  EXPECT_GT(report.memory_write_cost, 0.0);
}

TEST_F(ExternalSortTest, ApproxAndPreciseMoveIdenticalDeviceBytes) {
  // The paper's framing: the configurations differ only in in-memory write
  // cost; the disk traffic is identical by construction.
  const auto input = core::MakeKeys(core::WorkloadKind::kUniform, 60000, 6);
  ExternalSortOptions approx_options;
  approx_options.memory_budget_bytes = BudgetFor(15000);
  approx_options.t = 0.055;
  ExternalSortOptions precise_options = approx_options;
  precise_options.use_approx_refine = false;

  const ExternalSortReport approx = MustSort(input, approx_options);
  const ExternalSortReport precise = MustSort(input, precise_options);
  ASSERT_TRUE(approx.verified);
  ASSERT_TRUE(precise.verified);
  EXPECT_LT(approx.memory_write_cost, precise.memory_write_cost);
  EXPECT_GT(approx.total_rem, 0u);
  EXPECT_EQ(approx.device.bytes_read, precise.device.bytes_read);
  EXPECT_EQ(approx.device.bytes_written, precise.device.bytes_written);
  EXPECT_EQ(approx.bytes_spilled, precise.bytes_spilled);
}

TEST_F(ExternalSortTest, DigestsInvariantAcrossIoThreadCounts) {
  // The determinism contract behind --replay_check: per-run RNG rebasing
  // plus submit-time virtual scheduling make the spill and output digests
  // byte-identical whether bytes move inline or on a 4-thread pool.
  const auto input = core::MakeKeys(core::WorkloadKind::kUniform, 30000, 8);
  ExternalSortOptions options;
  options.memory_budget_bytes = BudgetFor(6000);

  core::ApproxSortEngine serial_engine(MakeOptions());
  const ExternalSortReport serial =
      MustSort(input, options, nullptr, &serial_engine);

  ThreadPool pool(4);
  core::ApproxSortEngine threaded_engine(MakeOptions());
  const ExternalSortReport threaded =
      MustSort(input, options, &pool, &threaded_engine);

  ASSERT_TRUE(serial.verified);
  ASSERT_TRUE(threaded.verified);
  EXPECT_EQ(serial.spill_digest, threaded.spill_digest);
  EXPECT_EQ(serial.output_digest, threaded.output_digest);
  EXPECT_EQ(serial.initial_runs, threaded.initial_runs);
  EXPECT_DOUBLE_EQ(serial.run_formation.makespan_us,
                   threaded.run_formation.makespan_us);
  EXPECT_DOUBLE_EQ(serial.merge.makespan_us, threaded.merge.makespan_us);
}

TEST_F(ExternalSortTest, BudgetHighWaterMeetsCapacityExactly) {
  const auto input = core::MakeKeys(core::WorkloadKind::kUniform, 20000, 9);
  ExternalSortOptions options;
  options.memory_budget_bytes = BudgetFor(4000);
  const ExternalSortReport report = MustSort(input, options);
  ASSERT_TRUE(report.verified);
  EXPECT_EQ(report.run_elements, 4000u);
  EXPECT_LE(report.budget_high_water, options.memory_budget_bytes);
  // Run sizing is derived to use the whole grant, not a fraction of it.
  EXPECT_GT(report.budget_high_water, options.memory_budget_bytes / 2);
}

TEST_F(ExternalSortTest, DeviceStatsCoverStagingAndSort) {
  // Cumulative device accounting: staging wrote n elements, run formation
  // read n and wrote n (runs), the merge read n and wrote n (output).
  const size_t n = 32768;
  const auto input = core::MakeKeys(core::WorkloadKind::kUniform, n, 11);
  ExternalSortOptions options;
  options.memory_budget_bytes = 1u << 20;  // Fan-in >= 8: single pass.
  options.run_elements = 4096;             // 8 runs.
  std::unique_ptr<AsyncDevice> device;
  const ExternalSortReport report =
      MustSort(input, options, nullptr, nullptr, &device);
  ASSERT_TRUE(report.verified);
  EXPECT_EQ(report.merge_passes, 1u);
  EXPECT_EQ(device->stats().bytes_written, 3 * n * 4);
  EXPECT_EQ(device->stats().bytes_read, 2 * n * 4);
}

TEST_F(ExternalSortTest, RejectsBadOptions) {
  core::ApproxSortEngine engine(MakeOptions());
  AsyncDevice device;
  const int file = device.CreateFile();
  ExternalSortOptions options;
  options.memory_budget_bytes = kRunFootprintBytesPerElement;  // < 2 elems.
  EXPECT_FALSE(ExternalSort(engine, device, file, options, nullptr).ok());
  options = ExternalSortOptions();
  options.run_elements = 1;
  EXPECT_FALSE(ExternalSort(engine, device, file, options, nullptr).ok());
  options = ExternalSortOptions();
  options.merge_fan_in = 1;
  EXPECT_FALSE(ExternalSort(engine, device, file, options, nullptr).ok());
  options = ExternalSortOptions();
  options.memory_budget_bytes = 0;  // Unlimited needs explicit run size.
  EXPECT_FALSE(ExternalSort(engine, device, file, options, nullptr).ok());
  options.run_elements = 4096;  // ... and with one it is accepted.
  EXPECT_TRUE(ExternalSort(engine, device, file, options, nullptr).ok());
}

// ---- Record-payload mode: <key, rowid> records through the spill path ----

TEST_F(ExternalSortTest, RecordPayloadOutputIsPermutationCertificate) {
  // Beyond report.verified: re-check the certificate by hand. Keys
  // nondecreasing, rowids a permutation of [0, n), and every output key
  // equal to the input key its rowid points at.
  const auto input = core::MakeKeys(core::WorkloadKind::kSkewed, 20000, 12);
  AsyncDevice device;
  const int input_file = device.CreateFile();
  device.Wait(device.SubmitWrite(input_file, input, 0.0));
  device.ResetClock();
  ExternalSortOptions options;
  options.record_payloads = true;
  options.memory_budget_bytes = 4000 * kRecordRunFootprintBytesPerElement;
  int output_file = -1;
  const auto report =
      ExternalSort(engine_, device, input_file, options, &output_file);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_TRUE(report->verified);
  EXPECT_GT(report->initial_runs, 1u);
  device.Drain();
  const std::vector<uint32_t> pairs = device.PeekData(output_file);
  ASSERT_EQ(pairs.size(), input.size() * 2);
  std::vector<bool> seen(input.size(), false);
  for (size_t i = 0; i < input.size(); ++i) {
    const uint32_t key = pairs[2 * i];
    const uint32_t rowid = pairs[2 * i + 1];
    if (i > 0) {
      EXPECT_LE(pairs[2 * (i - 1)], key) << "i=" << i;
    }
    ASSERT_LT(rowid, input.size());
    EXPECT_FALSE(seen[rowid]) << "duplicate rowid " << rowid;
    seen[rowid] = true;
    EXPECT_EQ(key, input[rowid]) << "i=" << i;
  }
}

TEST_F(ExternalSortTest, RecordPayloadRunSizingUses52BytesPerElement) {
  // Payload mode widens the flush buffer from 4-byte keys to 8-byte
  // records: 48 B/elem becomes 52 B/elem, so the same budget derives
  // proportionally smaller runs (and the bare-key derivation is unchanged).
  ASSERT_EQ(kRecordRunFootprintBytesPerElement, 52u);
  const size_t budget = 4000 * kRecordRunFootprintBytesPerElement;
  const auto input = core::MakeKeys(core::WorkloadKind::kUniform, 12000, 13);
  ExternalSortOptions options;
  options.memory_budget_bytes = budget;
  options.record_payloads = true;
  const ExternalSortReport payload = MustSort(input, options);
  EXPECT_EQ(payload.run_elements, 4000u);
  EXPECT_EQ(payload.initial_runs, 3u);
  options.record_payloads = false;
  const ExternalSortReport bare = MustSort(input, options);
  EXPECT_EQ(bare.run_elements, budget / kRunFootprintBytesPerElement);
  EXPECT_TRUE(payload.verified);
  EXPECT_TRUE(bare.verified);
}

TEST_F(ExternalSortTest, RecordPayloadSpillsEightBytesPerRecord) {
  // Block-aligned runs so whole-block charging is exact: each spill
  // generation moves n records of 8 bytes, twice the bare-key traffic.
  const size_t n = 16384;
  const auto input = core::MakeKeys(core::WorkloadKind::kUniform, n, 14);
  ExternalSortOptions options;
  options.memory_budget_bytes = 1u << 20;
  options.run_elements = 4096;  // 4 runs, single merge pass.
  options.record_payloads = true;
  const ExternalSortReport report = MustSort(input, options);
  ASSERT_TRUE(report.verified);
  EXPECT_EQ(report.merge_passes, 1u);
  EXPECT_EQ(report.bytes_spilled, n * kRecordBytes);
}

TEST_F(ExternalSortTest, TinyBudgetClampsPayloadMergeBuffer) {
  // The merge-buffer clamp, payload edge: 5 slots of 8-byte records must
  // fit the budget, so the derived buffer is budget / 40 records and the
  // fan-in floors at the minimum 2-way group. Without the clamp the
  // default 4096-record buffer would breach the budget and CHECK-fail.
  const size_t budget = 5120;
  const auto input = core::MakeKeys(core::WorkloadKind::kUniform, 500, 15);
  ExternalSortOptions options;
  options.memory_budget_bytes = budget;
  options.record_payloads = true;
  const ExternalSortReport report = MustSort(input, options);
  ASSERT_TRUE(report.verified);
  // budget / 52 = 98-element runs; 500 elements -> 6 runs at fan-in 2.
  EXPECT_EQ(report.run_elements, budget / kRecordRunFootprintBytesPerElement);
  EXPECT_EQ(report.initial_runs, 6u);
  EXPECT_EQ(report.merge_fan_in, 2u);
  EXPECT_GT(report.merge_passes, 1u);
  EXPECT_LE(report.budget_high_water, budget);
}

TEST_F(ExternalSortTest, RecordPayloadDigestsInvariantAcrossIoThreadCounts) {
  // The determinism contract must survive the wider records: spill and
  // output digests (now over interleaved pairs) are identical whether
  // bytes move inline or on a 4-thread pool.
  const auto input = core::MakeKeys(core::WorkloadKind::kUniform, 20000, 16);
  ExternalSortOptions options;
  options.memory_budget_bytes = BudgetFor(6000);
  options.record_payloads = true;

  core::ApproxSortEngine serial_engine(MakeOptions());
  const ExternalSortReport serial =
      MustSort(input, options, nullptr, &serial_engine);

  ThreadPool pool(4);
  core::ApproxSortEngine threaded_engine(MakeOptions());
  const ExternalSortReport threaded =
      MustSort(input, options, &pool, &threaded_engine);

  ASSERT_TRUE(serial.verified);
  ASSERT_TRUE(threaded.verified);
  EXPECT_EQ(serial.spill_digest, threaded.spill_digest);
  EXPECT_EQ(serial.output_digest, threaded.output_digest);
  EXPECT_EQ(serial.bytes_spilled, threaded.bytes_spilled);
}

TEST_F(ExternalSortTest, PayloadAndBareDeviceTrafficDifferOnlyByStride) {
  // Same input, same run count: payload mode's device traffic is exactly
  // the bare-key traffic with spill and output bytes doubled (the input
  // staging read is bare keys in both modes).
  const size_t n = 16384;
  const auto input = core::MakeKeys(core::WorkloadKind::kUniform, n, 17);
  ExternalSortOptions options;
  options.memory_budget_bytes = 1u << 20;
  options.run_elements = 4096;
  std::unique_ptr<AsyncDevice> bare_device;
  const ExternalSortReport bare =
      MustSort(input, options, nullptr, nullptr, &bare_device);
  options.record_payloads = true;
  std::unique_ptr<AsyncDevice> payload_device;
  const ExternalSortReport payload =
      MustSort(input, options, nullptr, nullptr, &payload_device);
  ASSERT_TRUE(bare.verified);
  ASSERT_TRUE(payload.verified);
  EXPECT_EQ(bare.initial_runs, payload.initial_runs);
  // Staging write: n keys in both. Runs + output: doubled under payloads.
  EXPECT_EQ(payload_device->stats().bytes_written - n * 4,
            2 * (bare_device->stats().bytes_written - n * 4));
  EXPECT_EQ(payload.bytes_spilled, 2 * bare.bytes_spilled);
}

}  // namespace
}  // namespace approxmem::extsort
