// Asynchronous block-device model for the out-of-core external sort.
//
// The device keeps two timelines apart:
//
//  * Wall clock: the bytes of a transfer are moved by a task scheduled on
//    the deterministic ThreadPool, so run formation genuinely overlaps its
//    in-memory sorts with the copies (with a 1-thread pool the copy runs
//    inline at submit, reproducing serial execution exactly).
//  * Virtual time: the device's *cost model* — per-request latency,
//    sequential bandwidth, and `queue_depth` concurrent channels — is
//    evaluated at submit time, on the submitting thread, in program order.
//    A transfer's virtual completion time therefore never depends on thread
//    scheduling, which is what keeps the external sort's reports and spill
//    digests byte-identical at any thread count.
//
// A transfer is issued with a `ready_us` virtual timestamp (when the data
// it depends on exists: a flush is ready when its run's sort finished). The
// device assigns it the earliest-free channel; service starts at
// max(ready, channel free), lasts latency + charged_bytes / bandwidth, and
// the completion time is returned by Wait(). Bytes are charged in whole
// blocks, like a real block device.
//
// Files are append-only sequences of 32-bit elements stored as one segment
// per write, so concurrent copy tasks never touch the same memory and no
// submit ever reallocates a buffer a task is filling.
#ifndef APPROXMEM_EXTSORT_ASYNC_DEVICE_H_
#define APPROXMEM_EXTSORT_ASYNC_DEVICE_H_

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "common/thread_pool.h"

namespace approxmem::extsort {

/// Geometry and timing of the modeled device.
struct AsyncDeviceConfig {
  /// Transfer-accounting granularity; bytes are charged in whole blocks.
  size_t block_bytes = 4096;
  /// Sustained sequential bandwidth in MB/s (= bytes per virtual µs).
  double bandwidth_mb_per_s = 400.0;
  /// Fixed per-request latency in virtual µs (seek/command overhead).
  double latency_us = 100.0;
  /// Concurrent in-flight requests the device services (NCQ depth);
  /// additional submissions queue on the earliest-free channel.
  int queue_depth = 4;

  Status Validate() const;
};

/// Aggregate accounting, accrued at submit in program order.
struct DeviceStats {
  uint64_t reads = 0;
  uint64_t writes = 0;
  uint64_t blocks_read = 0;
  uint64_t blocks_written = 0;
  uint64_t bytes_read = 0;
  uint64_t bytes_written = 0;
  /// Virtual channel-busy time (latency + transfer) per direction.
  double read_busy_us = 0.0;
  double write_busy_us = 0.0;
  /// Virtual time requests spent queued behind a busy channel.
  double queue_wait_us = 0.0;

  double BusyUs() const { return read_busy_us + write_busy_us; }
};

class AsyncDevice {
 public:
  using TransferId = uint64_t;

  /// `pool` runs the data movement; null (or a 1-thread pool) moves bytes
  /// inline at submit. The config must Validate() (CHECK-enforced).
  explicit AsyncDevice(const AsyncDeviceConfig& config = AsyncDeviceConfig(),
                       ThreadPool* pool = nullptr);
  ~AsyncDevice();

  AsyncDevice(const AsyncDevice&) = delete;
  AsyncDevice& operator=(const AsyncDevice&) = delete;

  /// Creates an empty file and returns its id.
  int CreateFile();

  /// Elements currently in `file`, counting extents reserved by in-flight
  /// writes (the extent exists from submit; its bytes land by Wait).
  size_t FileSize(int file) const;

  /// Submits an append of `values` to `file`. The extent is reserved here,
  /// in program order; the bytes are moved by a pool task. `ready_us` is
  /// the virtual time the data became available to write.
  TransferId SubmitWrite(int file, std::vector<uint32_t> values,
                         double ready_us);

  /// Submits a read of up to `count` elements at `offset` (clamped to the
  /// file end). The covered extent must have been written by transfers
  /// already Wait()ed on. `ready_us` is the virtual time the buffer is
  /// free to receive the data.
  TransferId SubmitRead(int file, size_t offset, size_t count,
                        double ready_us);

  /// Blocks until the transfer's bytes have been moved; returns its
  /// virtual completion time in µs. Write transfers are released here;
  /// read transfers stay alive until TakeData.
  double Wait(TransferId id);

  /// Takes a waited read transfer's data and releases the transfer.
  std::vector<uint32_t> TakeData(TransferId id);

  /// Blocks until every outstanding transfer's bytes have been moved.
  void Drain();

  /// Unaccounted flattened copy of `file` — verification only; the caller
  /// must have Wait()ed every write to the file.
  std::vector<uint32_t> PeekData(int file) const;

  /// Drops a file's contents (spent run files); free of charge. No
  /// transfer on the file may be in flight.
  void Truncate(int file);

  /// Drains, then re-zeroes the virtual channel clocks (stats and file
  /// contents are kept). Call after staging input files so a following
  /// sort's virtual timeline starts at 0 instead of queued behind the
  /// staging writes.
  void ResetClock();

  const AsyncDeviceConfig& config() const { return config_; }
  const DeviceStats& stats() const { return stats_; }
  /// Elements per block (block_bytes / 4).
  size_t block_elements() const { return config_.block_bytes / 4; }

 private:
  struct Transfer {
    bool copied = false;
    bool is_read = false;
    double done_us = 0.0;
    std::vector<uint32_t> data;  // Read destination.
  };

  /// One write's worth of contiguous elements.
  struct Segment {
    size_t begin = 0;  // Element offset of the segment within the file.
    std::vector<uint32_t> data;
  };

  struct File {
    std::vector<std::unique_ptr<Segment>> segments;
    size_t size = 0;  // Elements, including in-flight extents.
  };

  /// Assigns the earliest-free channel and returns the virtual completion
  /// time; accrues stats. Caller-thread only, program order.
  double ScheduleOnChannel(double ready_us, size_t bytes, bool is_read);

  void MarkCopied(TransferId id);

  AsyncDeviceConfig config_;
  ThreadPool* pool_;
  /// unique_ptr keeps File objects address-stable while copy tasks hold
  /// references across CreateFile calls.
  std::vector<std::unique_ptr<File>> files_;
  std::vector<double> channel_free_us_;
  DeviceStats stats_;
  TransferId next_id_ = 1;

  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::unordered_map<TransferId, Transfer> transfers_;
};

}  // namespace approxmem::extsort

#endif  // APPROXMEM_EXTSORT_ASYNC_DEVICE_H_
