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
/// Each set is a row of `ways` entries kept in recency order: entry 0 holds
/// the most recently used line and the tail the least, and empty ways (0)
/// always trail the resident lines. A hit moves its line to the front; a
/// read miss shifts the row right by one and writes the line at entry 0,
/// which drops the tail: the LRU line, or an empty way while the set is
/// not yet full.
///
/// A repeat access to the line of the previous access answers from a
/// one-entry memo without searching its set: that line already sits at
/// entry 0 of its row (or is known absent), so skipping the move leaves the
/// LRU order, and thus every later hit and eviction, unchanged.
class Cache {
 public:
  explicit Cache(const CacheConfig& config);

  /// Looks up `address`; on a read miss the line is installed. Returns true
  /// on hit. Writes update recency when present but never allocate.
  bool AccessRead(uint64_t address) {
    const uint64_t line = address >> line_shift_;
    if (line == memo_line_ && memo_present_) {
      ++hits_;
      return true;
    }
    const bool hit = Access(line, /*allocate=*/true);
    memo_line_ = line;
    memo_present_ = true;
    return hit;
  }
  bool AccessWrite(uint64_t address) {
    const uint64_t line = address >> line_shift_;
    if (line == memo_line_) {
      // Write-through, no-write-allocate: an absent line stays absent.
      if (memo_present_) {
        ++hits_;
      } else {
        ++misses_;
      }
      return memo_present_;
    }
    const bool hit = Access(line, /*allocate=*/false);
    memo_line_ = line;
    memo_present_ = hit;
    return hit;
  }

  const CacheConfig& config() const { return config_; }
  uint64_t hits() const { return hits_; }
  uint64_t misses() const { return misses_; }
  uint32_t num_sets() const { return num_sets_; }

  void ResetStats();
  /// Invalidates all lines (used between experiment phases).
  void Flush();

 private:
  /// Row storage mapped straight from the OS, not the heap: its zero pages
  /// (all empty ways) become resident only as sets are first touched, and
  /// go back on destruction. A Table 1 L3 holds 4 MiB of entries; from the
  /// heap it would be zero-filled up front and, once the allocator's mmap
  /// threshold had risen past that size, carved from whichever thread's
  /// arena asked, so resident memory varied by run.
  class LineTable {
   public:
    explicit LineTable(size_t count);
    LineTable(LineTable&& other) noexcept;
    LineTable& operator=(LineTable&& other) noexcept;
    ~LineTable();

    uint64_t* data() { return entries_; }
    size_t size() const { return count_; }

   private:
    uint64_t* entries_ = nullptr;
    size_t count_ = 0;
  };

  // Searches the row of `line`, moving it to the front on a hit; on a miss
  // installs it at the front if `allocate`. Returns true on hit.
  bool Access(uint64_t line, bool allocate) {
    const uint32_t ways = config_.ways;
    uint64_t* row =
        rows_.data() + static_cast<size_t>(line & (num_sets_ - 1)) * ways;
    const uint64_t entry = (line >> set_shift_) + 1;
    // The way the shift ends at: the hit, the first empty way, or the tail.
    uint32_t way = 0;
    bool hit = false;
    for (; way < ways; ++way) {
      if (row[way] == entry) {
        hit = true;
        break;
      }
      if (row[way] == 0) break;
    }
    if (hit) {
      ++hits_;
    } else {
      ++misses_;
      if (!allocate) return false;
      if (way == ways) --way;
    }
    for (; way > 0; --way) row[way] = row[way - 1];
    row[0] = entry;
    return hit;
  }

  CacheConfig config_;
  uint32_t num_sets_;
  uint32_t line_shift_;  // log2(line_bytes)
  uint32_t set_shift_;   // log2(num_sets_)
  // num_sets_ rows of `ways` entries, each a line's tag + 1 (0 marks an
  // empty way; a tag is below 2^63 because lines are 2 bytes or more).
  LineTable rows_;
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
  HitLevel Read(uint64_t address) {
    if (l1_.AccessRead(address)) return HitLevel::kL1;
    if (l2_.AccessRead(address)) return HitLevel::kL2;
    if (l3_.AccessRead(address)) return HitLevel::kL3;
    return HitLevel::kMemory;
  }

  /// Propagates a write through all levels (write-through).
  void Write(uint64_t address) {
    l1_.AccessWrite(address);
    l2_.AccessWrite(address);
    l3_.AccessWrite(address);
  }

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
