// Set-associative LRU caches (Table 1's L1/L2/L3).
//
// All levels are write-through (the paper assumes write-through so that
// every data write reaches main memory); writes do not allocate lines.
#ifndef APPROXMEM_MEM_CACHE_H_
#define APPROXMEM_MEM_CACHE_H_

#include <cstddef>
#include <cstdint>

#include "common/status.h"

namespace approxmem::mem {

/// Geometry and timing of one cache level.
struct CacheConfig {
  uint64_t capacity_bytes = 32 * 1024;
  uint32_t ways = 8;
  uint32_t line_bytes = 64;
  double hit_latency_ns = 1.0;

  Status Validate() const;
};

/// One set-associative, write-through, no-write-allocate LRU cache level.
///
/// A repeat access to the line of the previous access answers from a
/// one-entry memo without searching its set: that line already holds the
/// newest recency stamp (or is known absent), so skipping the re-stamp
/// leaves the LRU order, and thus every later hit and eviction, unchanged.
class Cache {
 public:
  explicit Cache(const CacheConfig& config);

  /// Looks up `address`; on a read miss the line is installed. Returns true
  /// on hit. Writes update recency when present but never allocate.
  bool AccessRead(uint64_t address);
  bool AccessWrite(uint64_t address);

  const CacheConfig& config() const { return config_; }
  uint64_t hits() const { return hits_; }
  uint64_t misses() const { return misses_; }
  uint32_t num_sets() const { return num_sets_; }

  void ResetStats();
  /// Invalidates all lines (used between experiment phases).
  void Flush();

 private:
  // `tag_plus_one` is the line's tag + 1, so that 0 (the all-zero Line{})
  // marks an invalid line and a Line packs into 16 bytes. (A tag is below
  // 2^63 whenever lines are 2 bytes or more.)
  struct Line {
    uint64_t tag_plus_one = 0;
    uint64_t last_used = 0;
  };

  /// Line storage mapped straight from the OS, not the heap: its zero
  /// pages (all-zero bytes are Line{}) become resident only as sets are
  /// first touched, and go back on destruction. A Table 1 L3 holds 8 MiB
  /// of lines; from the heap it would be zero-filled up front and, once
  /// the allocator's mmap threshold had risen past that size, carved from
  /// whichever thread's arena asked, so resident memory varied by run.
  class LineTable {
   public:
    explicit LineTable(size_t count);
    LineTable(LineTable&& other) noexcept;
    LineTable& operator=(LineTable&& other) noexcept;
    ~LineTable();

    Line& operator[](size_t i) { return lines_[i]; }
    const Line& operator[](size_t i) const { return lines_[i]; }
    size_t size() const { return count_; }

   private:
    Line* lines_ = nullptr;
    size_t count_ = 0;
  };

  // Returns the way index of `tag` in `set`, or -1.
  int FindWay(uint32_t set, uint64_t tag) const;
  void Touch(uint32_t set, int way);
  void Install(uint32_t set, uint64_t tag);
  // Searches for `line`, re-stamping it on a hit; on a miss installs it if
  // `allocate`. Returns true on hit.
  bool Access(uint64_t line, bool allocate);

  CacheConfig config_;
  uint32_t num_sets_;
  uint32_t line_shift_;  // log2(line_bytes)
  uint32_t set_shift_;   // log2(num_sets_)
  LineTable lines_;  // num_sets_ * ways, row-major by set.
  uint64_t clock_ = 0;
  // The line of the previous access and whether it was resident after it.
  uint64_t memo_line_ = ~uint64_t{0};
  bool memo_present_ = false;
  uint64_t hits_ = 0;
  uint64_t misses_ = 0;
};

/// Result of a hierarchy lookup: which level satisfied the read.
enum class HitLevel { kL1 = 1, kL2 = 2, kL3 = 3, kMemory = 4 };

/// The paper's three-level write-through hierarchy. Reads probe L1->L2->L3
/// and install in all levels on the way back; writes are passed through all
/// levels to memory.
class CacheHierarchy {
 public:
  /// Builds the Table 1 configuration: L1 32KB LRU, L2 2MB 4-way,
  /// L3 32MB 8-way 10ns, 64-byte lines.
  static CacheHierarchy PaperDefault();

  CacheHierarchy(const CacheConfig& l1, const CacheConfig& l2,
                 const CacheConfig& l3);

  /// Probes the hierarchy for a read and returns the level that hit.
  HitLevel Read(uint64_t address);

  /// Propagates a write through all levels (write-through).
  void Write(uint64_t address);

  /// Hit latency of `level` in ns (memory returns 0; the PCM model owns it).
  double LatencyNs(HitLevel level) const;

  const Cache& l1() const { return l1_; }
  const Cache& l2() const { return l2_; }
  const Cache& l3() const { return l3_; }

  void ResetStats();
  void Flush();

 private:
  Cache l1_;
  Cache l2_;
  Cache l3_;
};

}  // namespace approxmem::mem

#endif  // APPROXMEM_MEM_CACHE_H_
