// Production-scale out-of-core external sort with async I/O overlap
// (the paper's Section 4.1 disk scenario, grown up).
//
// Phase 1 — run formation, double-buffered: while run k sorts under
// approx-refine in the hybrid memory (or precisely, for the baseline
// configuration), run k+1's input is prefetching from the device and run
// k-1's sorted output is flushing. Every run's sort happens on the calling
// thread with the allocation RNG rebased to (seed, run index) via
// ApproxSortEngine::SortRunApproxRefine, so run contents — and therefore
// the spill digest — are byte-identical at any thread count.
//
// Phase 2 — k-way loser-tree merge with per-cursor read-ahead, in passes
// while more runs remain than the derived fan-in.
//
// Both phases live under a strict MemoryBudget contract: run size and
// merge fan-in are derived from the budget, every working buffer reserves
// its modeled footprint before it exists, and a breach CHECK-fails.
//
// Disk traffic is identical between the approximate and precise
// configurations; the entire difference is the in-memory write cost —
// which is the paper's point, now measured with I/O-compute overlap
// accounted (a cheaper in-memory sort only helps wall time once the sort,
// not the device, is the pipeline's critical path).
#ifndef APPROXMEM_EXTSORT_EXTERNAL_SORT_H_
#define APPROXMEM_EXTSORT_EXTERNAL_SORT_H_

#include <cstddef>
#include <cstdint>

#include "approx/memory_stats.h"
#include "common/status.h"
#include "core/engine.h"
#include "extsort/async_device.h"
#include "sort/sort_common.h"

namespace approxmem::extsort {

/// Modeled working-set footprint of run formation, in bytes per element:
/// 2 prefetch slots + 1 in-flight flush buffer + the approx-refine
/// pipeline's Key0/ID/Key~ + radix scratch (keys and IDs) + the final
/// <Key, ID> output + REMID headroom = 12 x 4-byte words. The derived run
/// size is memory_budget_bytes / 48, so the pipeline's peak reservation
/// meets the budget exactly.
inline constexpr size_t kRunFootprintBytesPerElement = 48;
/// The in-sort portion of the footprint (everything but the prefetch and
/// flush slots), reserved around each run's sort.
inline constexpr size_t kSortWorkingBytesPerElement = 36;
/// Bytes per device element (32-bit words).
inline constexpr size_t kDeviceElementBytes = 4;
/// Bytes per spilled record in record-payload mode: an interleaved
/// <key, rowid> pair of 32-bit words.
inline constexpr size_t kRecordBytes = 8;
/// Run-formation footprint per element with record payloads: the prefetch
/// slots still hold bare input keys (2 x 4B) and the sort working set
/// already carries IDs (36B), but the in-flight flush buffer now holds
/// 8-byte records instead of 4-byte keys — 52B/elem total. The derived run
/// size in payload mode is memory_budget_bytes / 52.
inline constexpr size_t kRecordRunFootprintBytesPerElement =
    kRunFootprintBytesPerElement - kDeviceElementBytes + kRecordBytes;
/// Modeled merge compute per element per loser-tree level, in virtual ns.
inline constexpr double kMergeNsPerElementLevel = 2.0;

struct ExternalSortOptions {
  /// Total modeled working memory for both phases. Run size and merge
  /// fan-in are derived from this unless overridden below.
  size_t memory_budget_bytes = 8u << 20;
  /// Algorithm for the in-memory sorts.
  sort::AlgorithmId algorithm{sort::SortKind::kLsdRadix, 3};
  /// Guard-band half-width (backend knob) for the approx stage.
  double t = 0.055;
  /// false = precise in-memory sorts (the baseline configuration).
  bool use_approx_refine = true;
  /// Elements per run; 0 derives budget / kRunFootprintBytesPerElement.
  size_t run_elements = 0;
  /// Maximum runs merged per pass; 0 derives from the budget and the
  /// merge buffer size (more initial runs than fan-in means extra passes).
  size_t merge_fan_in = 0;
  /// Elements per merge cursor buffer; 0 derives max(block, 4096),
  /// shrunk if needed so the minimum 2-way merge group fits the budget.
  size_t merge_buffer_elements = 0;
  /// Salt folded into each run's BeginJobStream key.
  uint64_t stream_salt = 0x5b1dULL;
  /// Verify the output against the input (sorted + permutation); skippable
  /// for sweeps that gate on digests instead.
  bool verify = true;
  /// Record payloads: spill <key, rowid> pairs (8 bytes per record,
  /// interleaved 32-bit words) instead of bare keys, all the way through
  /// run formation, the merge cursors, and the final output — which then
  /// verifies as a permutation certificate (keys sorted, rowids a
  /// permutation of [0, n), key[i] == input[rowid[i]]), the same contract
  /// the differential oracle checks for in-memory sorts. The input file
  /// still holds bare keys; rowids are their global input offsets.
  bool record_payloads = false;

  Status Validate() const;
};

/// Virtual-time accounting of one phase. The overlap ratio is
/// (device busy + compute) / makespan: exactly 1.0 for a serial
/// read-sort-write loop, > 1.0 whenever I/O ran under compute.
struct PhaseMetrics {
  double io_busy_us = 0.0;
  double compute_us = 0.0;
  double makespan_us = 0.0;

  double OverlapRatio() const {
    return makespan_us > 0.0 ? (io_busy_us + compute_us) / makespan_us : 1.0;
  }
};

struct ExternalSortReport {
  size_t n = 0;
  size_t initial_runs = 0;
  size_t merge_passes = 0;
  /// Derived (or overridden) sizing, echoed for instrumentation.
  size_t run_elements = 0;
  size_t merge_fan_in = 0;
  /// Bytes written to the device beyond the final output: initial runs
  /// plus intermediate merge passes.
  uint64_t bytes_spilled = 0;
  DeviceStats device;
  PhaseMetrics run_formation;
  PhaseMetrics merge;
  /// Simulated memory write / read cost of all in-memory sorts (ns).
  double memory_write_cost = 0.0;
  double memory_read_cost = 0.0;
  /// Full simulated-memory ledger summed over every run's sort — what a
  /// scheduler charges into tenant/wear accounting (Eq. 2 numerator for
  /// the approx configuration).
  approx::MemoryStats memory_stats;
  /// Heuristic-REM total across runs (0 in precise mode).
  size_t total_rem = 0;
  /// FNV-1a over every initial run's sorted bytes, in run order — the
  /// determinism gate: identical at any thread count for a fixed seed.
  uint64_t spill_digest = 0;
  /// FNV-1a over the final output bytes.
  uint64_t output_digest = 0;
  /// Peak modeled reservation against the budget.
  size_t budget_high_water = 0;
  /// Output is exactly sorted and a permutation of the input (always true
  /// when options.verify was off — digests are the gate then).
  bool verified = false;

  /// End-to-end overlap across both phases.
  PhaseMetrics Total() const {
    return PhaseMetrics{run_formation.io_busy_us + merge.io_busy_us,
                        run_formation.compute_us + merge.compute_us,
                        run_formation.makespan_us + merge.makespan_us};
  }
};

/// Sorts `input_file` on `device`; returns the report and stores the
/// output file id in `*output_file`. The engine provides the hybrid
/// memory; the device's ThreadPool provides the I/O concurrency.
StatusOr<ExternalSortReport> ExternalSort(core::ApproxSortEngine& engine,
                                          AsyncDevice& device, int input_file,
                                          const ExternalSortOptions& options,
                                          int* output_file);

}  // namespace approxmem::extsort

#endif  // APPROXMEM_EXTSORT_EXTERNAL_SORT_H_
