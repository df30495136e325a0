#include "extsort/external_sort.h"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "common/check.h"
#include "common/hash.h"
#include "common/memory_budget.h"
#include "extsort/loser_tree.h"
#include "refine/approx_refine.h"
#include "sortedness/measures.h"

namespace approxmem::extsort {
namespace {

/// Resolved sizing: every 0-valued option derived from the budget.
/// merge_buffer_elements counts *records*; record_stride is the 32-bit
/// words per record (1 for bare keys, 2 for <key, rowid> pairs).
struct Sizing {
  size_t run_elements = 0;
  size_t merge_buffer_elements = 0;
  size_t merge_fan_in = 0;
  size_t record_stride = 1;
};

Sizing DeriveSizing(const ExternalSortOptions& options,
                    const AsyncDevice& device, size_t budget_bytes) {
  Sizing sizing;
  sizing.record_stride =
      options.record_payloads ? kRecordBytes / kDeviceElementBytes : 1;
  const size_t record_bytes = sizing.record_stride * kDeviceElementBytes;
  const size_t run_footprint = options.record_payloads
                                   ? kRecordRunFootprintBytesPerElement
                                   : kRunFootprintBytesPerElement;
  sizing.run_elements =
      options.run_elements != 0
          ? options.run_elements
          : std::max<size_t>(2, budget_bytes / run_footprint);
  sizing.merge_buffer_elements =
      options.merge_buffer_elements != 0
          ? options.merge_buffer_elements
          : std::max<size_t>(device.block_elements(), 4096);
  if (options.merge_buffer_elements == 0 && budget_bytes > 0) {
    // A tiny budget must still fit the minimum merge group — 2 cursors
    // with double buffers plus the output buffer is 5 slots — so shrink
    // the buffer rather than letting MergeGroup breach the contract. A
    // record-payload slot is twice as wide, so the clamp halves with it.
    sizing.merge_buffer_elements = std::min(
        sizing.merge_buffer_elements,
        std::max<size_t>(1, budget_bytes / (5 * record_bytes)));
  }
  if (options.merge_fan_in != 0) {
    sizing.merge_fan_in = options.merge_fan_in;
  } else {
    // Budget in merge-buffer slots: each cursor needs two (current +
    // read-ahead), the output buffer one.
    const size_t slot_bytes = sizing.merge_buffer_elements * record_bytes;
    const size_t slots = budget_bytes == 0
                             ? std::numeric_limits<size_t>::max()
                             : budget_bytes / slot_bytes;
    sizing.merge_fan_in = slots > 5 ? (slots - 1) / 2 : 2;
  }
  return sizing;
}

uint64_t EmptyDigest() { return Fnv1a64(nullptr, 0); }

DeviceStats StatsDelta(const DeviceStats& after, const DeviceStats& before) {
  DeviceStats d;
  d.reads = after.reads - before.reads;
  d.writes = after.writes - before.writes;
  d.blocks_read = after.blocks_read - before.blocks_read;
  d.blocks_written = after.blocks_written - before.blocks_written;
  d.bytes_read = after.bytes_read - before.bytes_read;
  d.bytes_written = after.bytes_written - before.bytes_written;
  d.read_busy_us = after.read_busy_us - before.read_busy_us;
  d.write_busy_us = after.write_busy_us - before.write_busy_us;
  d.queue_wait_us = after.queue_wait_us - before.queue_wait_us;
  return d;
}

struct RunExtent {
  int file = 0;
  size_t begin = 0;
  size_t end = 0;
};

/// Double-buffered cursor over one sorted run: while the merge consumes
/// the current buffer, the next one is already in flight on the device.
/// `buffer_records` counts records; `stride` is words per record, so a
/// record-payload refill moves stride x records device elements and a
/// <key, rowid> pair never splits across two refills (run extents are
/// whole records).
class MergeCursor {
 public:
  MergeCursor(AsyncDevice* device, const RunExtent& run,
              size_t buffer_records, size_t stride)
      : device_(device),
        file_(run.file),
        next_(run.begin),
        end_(run.end),
        buffer_elements_(buffer_records * stride),
        stride_(stride) {}

  /// Submits the initial read-ahead at virtual time `clock_us`.
  void Open(double clock_us) { SubmitNext(clock_us); }

  /// Returns false when the run is exhausted. A refill waits on the
  /// in-flight read, advances `*clock_us` to its completion, and submits
  /// the next read-ahead. `payload`, when non-null, receives the record's
  /// second word (stride 2 only).
  bool Peek(uint32_t* key, uint32_t* payload, double* clock_us) {
    if (pos_ >= buffer_.size() && !Refill(clock_us)) return false;
    *key = buffer_[pos_];
    if (payload != nullptr && stride_ == 2) *payload = buffer_[pos_ + 1];
    return true;
  }

  void Advance() { pos_ += stride_; }

 private:
  void SubmitNext(double ready_us) {
    if (next_ >= end_) return;
    const size_t count = std::min(buffer_elements_, end_ - next_);
    pending_ = device_->SubmitRead(file_, next_, count, ready_us);
    has_pending_ = true;
    next_ += count;
  }

  bool Refill(double* clock_us) {
    if (!has_pending_) return false;
    const double done_us = device_->Wait(pending_);
    *clock_us = std::max(*clock_us, done_us);
    buffer_ = device_->TakeData(pending_);
    has_pending_ = false;
    pos_ = 0;
    SubmitNext(*clock_us);
    return !buffer_.empty();
  }

  AsyncDevice* device_;
  int file_;
  size_t next_;
  size_t end_;
  size_t buffer_elements_;
  size_t stride_;
  AsyncDevice::TransferId pending_ = 0;
  bool has_pending_ = false;
  std::vector<uint32_t> buffer_;
  size_t pos_ = 0;
};

/// Merges `runs` into one run appended to `out_file`, advancing the merge
/// phase's virtual clock and compute ledger. The group reserves its whole
/// working set — 2 buffers per cursor plus the output buffer — up front.
RunExtent MergeGroup(AsyncDevice& device, const std::vector<RunExtent>& runs,
                     int out_file, const Sizing& sizing, MemoryBudget* budget,
                     double* clock_us, double* compute_us) {
  const size_t stride = sizing.record_stride;
  const size_t buffer_bytes =
      sizing.merge_buffer_elements * stride * kDeviceElementBytes;
  BudgetReservation working(budget, (2 * runs.size() + 1) * buffer_bytes);
  const double levels = std::max(
      1.0, std::ceil(std::log2(static_cast<double>(runs.size()))));
  const double per_record_us = kMergeNsPerElementLevel * levels / 1000.0;

  const size_t begin = device.FileSize(out_file);
  std::vector<MergeCursor> cursors;
  cursors.reserve(runs.size());
  for (const RunExtent& run : runs) {
    cursors.emplace_back(&device, run, sizing.merge_buffer_elements, stride);
  }
  for (MergeCursor& cursor : cursors) cursor.Open(*clock_us);

  // The loser tree keys on the record key; each way's in-flight payload
  // rides alongside so a popped record re-emits its rowid unchanged.
  LoserTree tree(runs.size());
  std::vector<uint32_t> head_payload(runs.size(), 0);
  for (size_t way = 0; way < cursors.size(); ++way) {
    uint32_t head = 0;
    if (cursors[way].Peek(&head, &head_payload[way], clock_us)) {
      tree.Update(way, head, true);
    }
  }

  const size_t out_capacity = sizing.merge_buffer_elements * stride;
  std::vector<AsyncDevice::TransferId> writes;
  std::vector<uint32_t> out_buffer;
  out_buffer.reserve(out_capacity);
  const auto flush = [&] {
    if (out_buffer.empty()) return;
    // The emitted records cost compute before they can be written.
    const double cost =
        static_cast<double>(out_buffer.size() / stride) * per_record_us;
    *clock_us += cost;
    *compute_us += cost;
    writes.push_back(
        device.SubmitWrite(out_file, std::move(out_buffer), *clock_us));
    out_buffer = std::vector<uint32_t>();
    out_buffer.reserve(out_capacity);
  };

  while (!tree.Exhausted()) {
    const size_t way = tree.MinWay();
    out_buffer.push_back(tree.MinKey());
    if (stride == 2) out_buffer.push_back(head_payload[way]);
    if (out_buffer.size() >= out_capacity) flush();
    cursors[way].Advance();
    uint32_t head = 0;
    if (cursors[way].Peek(&head, &head_payload[way], clock_us)) {
      tree.Update(way, head, true);
    } else {
      tree.Update(way, 0, false);
    }
  }
  flush();
  for (const AsyncDevice::TransferId id : writes) {
    *clock_us = std::max(*clock_us, device.Wait(id));
  }
  return RunExtent{out_file, begin, device.FileSize(out_file)};
}

}  // namespace

Status ExternalSortOptions::Validate() const {
  // t only drives the approx stage; the precise configuration (and a
  // precise backend, whose knob is 0) never reads it. Written so that a NaN
  // t fails too.
  if (use_approx_refine && !(t > 0.0)) {
    return Status::InvalidArgument("t must be positive");
  }
  if (memory_budget_bytes == 0 && run_elements == 0) {
    return Status::InvalidArgument(
        "an unlimited budget requires an explicit run_elements");
  }
  const size_t run_footprint = record_payloads
                                   ? kRecordRunFootprintBytesPerElement
                                   : kRunFootprintBytesPerElement;
  if (run_elements == 0 && memory_budget_bytes < 2 * run_footprint) {
    return Status::InvalidArgument(
        "memory budget below the working set of a 2-element run");
  }
  if (run_elements == 1) {
    return Status::InvalidArgument("run_elements must be 0 (derived) or >= 2");
  }
  if (merge_fan_in == 1) {
    return Status::InvalidArgument(
        "merge_fan_in must be 0 (derived) or >= 2");
  }
  return Status::Ok();
}

StatusOr<ExternalSortReport> ExternalSort(core::ApproxSortEngine& engine,
                                          AsyncDevice& device, int input_file,
                                          const ExternalSortOptions& options,
                                          int* output_file) {
  const Status valid = options.Validate();
  if (!valid.ok()) return valid;

  MemoryBudget working_memory(options.memory_budget_bytes);
  MemoryBudget* budget = &working_memory;
  const Sizing sizing =
      DeriveSizing(options, device, options.memory_budget_bytes);

  ExternalSortReport report;
  report.n = device.FileSize(input_file);
  report.run_elements = sizing.run_elements;
  report.merge_fan_in = sizing.merge_fan_in;
  report.spill_digest = EmptyDigest();
  const DeviceStats stats_at_start = device.stats();

  // ---- Phase 1: double-buffered run formation. The virtual clock starts
  // at 0; all submissions happen on this thread in deterministic order.
  const size_t run_count =
      report.n == 0 ? 0
                    : (report.n + sizing.run_elements - 1) /
                          sizing.run_elements;
  const auto chunk_begin = [&](size_t k) { return k * sizing.run_elements; };
  const auto chunk_count = [&](size_t k) {
    return std::min(sizing.run_elements, report.n - chunk_begin(k));
  };

  const int run_file = device.CreateFile();
  std::vector<RunExtent> runs;
  runs.reserve(run_count);

  std::vector<AsyncDevice::TransferId> prefetch(run_count, 0);
  std::vector<BudgetReservation> prefetch_slot(run_count);
  struct PendingFlush {
    AsyncDevice::TransferId id = 0;
    BudgetReservation slot;
    bool active = false;
  };
  std::vector<PendingFlush> flushes(run_count);

  double compute_free_us = 0.0;   // When the (single) modeled CPU frees up.
  double prev_sort_done_us = 0.0;  // sort_done[k-1], for prefetch ready.
  double formation_end_us = 0.0;

  if (run_count > 0) {
    prefetch_slot[0] = BudgetReservation(budget, chunk_count(0) * 4);
    prefetch[0] = device.SubmitRead(input_file, 0, chunk_count(0), 0.0);
  }
  for (size_t k = 0; k < run_count; ++k) {
    // Retire flush k-2: at most one flush stays in flight behind the
    // current sort, bounding the working set.
    if (k >= 2 && flushes[k - 2].active) {
      formation_end_us =
          std::max(formation_end_us, device.Wait(flushes[k - 2].id));
      flushes[k - 2].slot.reset();
      flushes[k - 2].active = false;
    }
    // Prefetch run k+1 into the slot sort k-1 just freed.
    if (k + 1 < run_count) {
      prefetch_slot[k + 1] = BudgetReservation(budget, chunk_count(k + 1) * 4);
      prefetch[k + 1] = device.SubmitRead(input_file, chunk_begin(k + 1),
                                          chunk_count(k + 1),
                                          prev_sort_done_us);
    }
    const double load_done_us = device.Wait(prefetch[k]);
    const std::vector<uint32_t> chunk = device.TakeData(prefetch[k]);
    APPROXMEM_CHECK(chunk.size() == chunk_count(k));

    // The run's sort, on this thread, with the allocation RNG rebased to
    // (seed, run index) and the sort's working set reserved around it. In
    // record-payload mode `sorted` interleaves <key, rowid> pairs, rowids
    // rebased to the run's global input offset.
    std::vector<uint32_t> sorted;
    double sort_cost_ns = 0.0;
    {
      BudgetReservation working(budget,
                                chunk.size() * kSortWorkingBytesPerElement);
      const uint64_t stream_key = options.stream_salt ^ (k + 1);
      std::vector<uint32_t> run_keys;
      std::vector<uint32_t> run_ids;
      std::vector<uint32_t>* keys_out =
          options.record_payloads ? &run_keys : &sorted;
      std::vector<uint32_t>* ids_out =
          options.record_payloads ? &run_ids : nullptr;
      if (options.use_approx_refine) {
        const auto run_report = engine.SortRunApproxRefine(
            chunk, options.algorithm, options.t, stream_key, keys_out,
            ids_out);
        if (!run_report.ok()) return run_report.status();
        if (!run_report->verified()) {
          return Status::Internal(
              "approx-refine produced an unverified run " +
              std::to_string(k) + ": " +
              run_report->verification.ToString());
        }
        report.memory_write_cost += run_report->TotalWriteCost();
        report.memory_read_cost += run_report->TotalReadCost();
        report.memory_stats += run_report->TotalStats();
        report.total_rem += run_report->rem_estimate;
        sort_cost_ns =
            run_report->TotalWriteCost() + run_report->TotalReadCost();
      } else {
        const auto baseline = engine.SortRunPrecise(
            chunk, options.algorithm, stream_key, keys_out, ids_out);
        if (!baseline.ok()) return baseline.status();
        const double write_cost =
            baseline->keys.write_cost + baseline->ids.write_cost;
        const double read_cost =
            baseline->keys.read_cost + baseline->ids.read_cost;
        report.memory_write_cost += write_cost;
        report.memory_read_cost += read_cost;
        report.memory_stats += baseline->keys;
        report.memory_stats += baseline->ids;
        sort_cost_ns = write_cost + read_cost;
      }
      if (options.record_payloads) {
        const uint32_t base = static_cast<uint32_t>(chunk_begin(k));
        sorted.resize(run_keys.size() * 2);
        for (size_t i = 0; i < run_keys.size(); ++i) {
          sorted[2 * i] = run_keys[i];
          sorted[2 * i + 1] = base + run_ids[i];
        }
      }
    }
    prefetch_slot[k].reset();
    APPROXMEM_CHECK(sorted.size() ==
                    chunk.size() * sizing.record_stride);

    const double sort_start_us = std::max(compute_free_us, load_done_us);
    const double sort_done_us = sort_start_us + sort_cost_ns / 1000.0;
    compute_free_us = sort_done_us;
    report.run_formation.compute_us += sort_cost_ns / 1000.0;
    prev_sort_done_us = sort_done_us;

    report.spill_digest =
        Fnv1a64(sorted.data(), sorted.size() * sizeof(uint32_t),
                report.spill_digest);

    const size_t begin = device.FileSize(run_file);
    flushes[k].slot = BudgetReservation(budget, sorted.size() * 4);
    flushes[k].id =
        device.SubmitWrite(run_file, std::move(sorted), sort_done_us);
    flushes[k].active = true;
    runs.push_back(RunExtent{run_file, begin, device.FileSize(run_file)});
  }
  for (PendingFlush& pending : flushes) {
    if (!pending.active) continue;
    formation_end_us = std::max(formation_end_us, device.Wait(pending.id));
    pending.slot.reset();
    pending.active = false;
  }
  formation_end_us = std::max(formation_end_us, compute_free_us);
  report.initial_runs = runs.size();
  {
    const DeviceStats after = device.stats();
    report.run_formation.io_busy_us =
        StatsDelta(after, stats_at_start).BusyUs();
    report.run_formation.makespan_us = formation_end_us;
  }

  // ---- Phase 2: loser-tree merge passes with per-cursor read-ahead.
  const DeviceStats stats_at_merge = device.stats();
  double clock_us = formation_end_us;
  while (runs.size() > 1) {
    ++report.merge_passes;
    const int next_file = device.CreateFile();
    std::vector<RunExtent> next_runs;
    std::vector<int> spent_files;
    for (size_t group = 0; group < runs.size();
         group += sizing.merge_fan_in) {
      const size_t group_end =
          std::min(group + sizing.merge_fan_in, runs.size());
      const std::vector<RunExtent> group_runs(
          runs.begin() + static_cast<ptrdiff_t>(group),
          runs.begin() + static_cast<ptrdiff_t>(group_end));
      next_runs.push_back(MergeGroup(device, group_runs, next_file, sizing,
                                     budget, &clock_us,
                                     &report.merge.compute_us));
    }
    // The pass's input files are spent; drop their contents (free of
    // charge, like deleting temporary spill files).
    for (const RunExtent& run : runs) {
      if (run.file != input_file && (spent_files.empty() ||
                                     spent_files.back() != run.file)) {
        spent_files.push_back(run.file);
      }
    }
    runs = std::move(next_runs);
    for (const int file : spent_files) device.Truncate(file);
  }
  {
    const DeviceStats after = device.stats();
    report.merge.io_busy_us = StatsDelta(after, stats_at_merge).BusyUs();
    report.merge.makespan_us = clock_us - formation_end_us;
  }

  // ---- Output file resolution.
  int final_file;
  if (runs.empty()) {
    final_file = device.CreateFile();  // Empty input -> empty output.
  } else if (runs[0].begin == 0 &&
             runs[0].end == device.FileSize(runs[0].file)) {
    final_file = runs[0].file;
  } else {
    // Single run embedded in a shared file: copy it out.
    final_file = device.CreateFile();
    const AsyncDevice::TransferId read = device.SubmitRead(
        runs[0].file, runs[0].begin, runs[0].end - runs[0].begin, clock_us);
    clock_us = std::max(clock_us, device.Wait(read));
    const AsyncDevice::TransferId write =
        device.SubmitWrite(final_file, device.TakeData(read), clock_us);
    clock_us = std::max(clock_us, device.Wait(write));
  }

  {
    const DeviceStats delta = StatsDelta(device.stats(), stats_at_start);
    report.bytes_spilled =
        delta.bytes_written - device.FileSize(final_file) * 4;
  }
  report.device = device.stats();
  report.budget_high_water = budget->high_water();

  // ---- Verification (unaccounted reads) and the output digest.
  device.Drain();
  const std::vector<uint32_t> output = device.PeekData(final_file);
  report.output_digest =
      output.empty()
          ? EmptyDigest()
          : Fnv1a64(output.data(), output.size() * sizeof(uint32_t));
  if (!options.verify) {
    report.verified = true;
  } else if (options.record_payloads) {
    // Permutation certificate: output keys exactly sorted, rowids a
    // permutation of [0, n), and key[i] == input[rowid[i]] — the same
    // invariants the differential oracle checks for in-memory sorts.
    if (output.size() == report.n * 2) {
      std::vector<uint32_t> out_keys(report.n);
      std::vector<uint32_t> out_ids(report.n);
      for (size_t i = 0; i < report.n; ++i) {
        out_keys[i] = output[2 * i];
        out_ids[i] = output[2 * i + 1];
      }
      report.verified = refine::VerifyRefineOutput(
                            device.PeekData(input_file), out_keys, out_ids)
                            .ok();
    } else {
      report.verified = false;
    }
  } else {
    report.verified = output.size() == report.n &&
                      sortedness::IsSorted(output) &&
                      sortedness::IsPermutationOf(device.PeekData(input_file),
                                                  output);
  }
  if (output_file != nullptr) *output_file = final_file;
  return report;
}

}  // namespace approxmem::extsort
