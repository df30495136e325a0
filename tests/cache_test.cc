#include "mem/cache.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/random.h"

namespace approxmem::mem {
namespace {

CacheConfig SmallCache() {
  CacheConfig config;
  config.capacity_bytes = 1024;  // 4 sets x 4 ways x 64B.
  config.ways = 4;
  config.line_bytes = 64;
  config.hit_latency_ns = 1.0;
  return config;
}

TEST(CacheConfigTest, ValidatesGeometry) {
  EXPECT_TRUE(SmallCache().Validate().ok());
  CacheConfig bad = SmallCache();
  bad.line_bytes = 48;  // Not a power of two.
  EXPECT_FALSE(bad.Validate().ok());
  bad = SmallCache();
  bad.ways = 0;
  EXPECT_FALSE(bad.Validate().ok());
  bad = SmallCache();
  bad.capacity_bytes = 1000;  // Not a multiple of ways*line.
  EXPECT_FALSE(bad.Validate().ok());
  bad = SmallCache();
  bad.capacity_bytes = 768;  // 3 sets: not a power of two.
  EXPECT_FALSE(bad.Validate().ok());
  // 1-byte lines: with one set, address 2^64 - 1 would encode as the
  // empty-way marker (tag + 1 == 0).
  bad = SmallCache();
  bad.line_bytes = 1;
  bad.capacity_bytes = bad.ways;
  EXPECT_FALSE(bad.Validate().ok());
  CacheConfig two_byte_lines = bad;
  two_byte_lines.line_bytes = 2;
  two_byte_lines.capacity_bytes = 2 * two_byte_lines.ways;
  EXPECT_TRUE(two_byte_lines.Validate().ok());
}

TEST(CacheTest, ColdMissThenHit) {
  Cache cache(SmallCache());
  EXPECT_FALSE(cache.AccessRead(0x0));
  EXPECT_TRUE(cache.AccessRead(0x0));
  EXPECT_TRUE(cache.AccessRead(0x3F));  // Same 64B line.
  EXPECT_FALSE(cache.AccessRead(0x40));  // Next line.
  EXPECT_EQ(cache.hits(), 2u);
  EXPECT_EQ(cache.misses(), 2u);
}

TEST(CacheTest, LruEvictionOrder) {
  Cache cache(SmallCache());  // 4 ways per set; set stride is 4*64 = 256B.
  // Fill one set with 4 lines.
  for (uint64_t i = 0; i < 4; ++i) cache.AccessRead(i * 256);
  // Touch line 0 so line 1 becomes LRU.
  EXPECT_TRUE(cache.AccessRead(0));
  // Install a 5th line in the same set; line 1 must be evicted.
  EXPECT_FALSE(cache.AccessRead(4 * 256));
  EXPECT_TRUE(cache.AccessRead(0));        // Still resident.
  EXPECT_FALSE(cache.AccessRead(1 * 256));  // Evicted.
}

TEST(CacheTest, WritesDoNotAllocate) {
  Cache cache(SmallCache());
  EXPECT_FALSE(cache.AccessWrite(0x0));
  EXPECT_FALSE(cache.AccessRead(0x0));  // Still a miss: no write-allocate.
}

TEST(CacheTest, WriteHitsUpdateRecency) {
  Cache cache(SmallCache());
  for (uint64_t i = 0; i < 4; ++i) cache.AccessRead(i * 256);
  EXPECT_TRUE(cache.AccessWrite(0));       // Write hit touches line 0.
  cache.AccessRead(4 * 256);               // Evicts line 1 (LRU), not 0.
  EXPECT_TRUE(cache.AccessRead(0));
}

TEST(CacheTest, FlushInvalidatesAll) {
  Cache cache(SmallCache());
  cache.AccessRead(0);
  cache.Flush();
  EXPECT_FALSE(cache.AccessRead(0));
}

TEST(CacheTest, ResetStatsKeepsContents) {
  Cache cache(SmallCache());
  cache.AccessRead(0);
  cache.ResetStats();
  EXPECT_EQ(cache.hits(), 0u);
  EXPECT_EQ(cache.misses(), 0u);
  EXPECT_TRUE(cache.AccessRead(0));  // Line still resident.
}

TEST(CacheTest, MoveCarriesLines) {
  // The line table is mapped memory owned by one Cache at a time.
  Cache cache(SmallCache());
  EXPECT_FALSE(cache.AccessRead(0x0));
  Cache moved(std::move(cache));
  EXPECT_TRUE(moved.AccessRead(0x0));
  Cache assigned(SmallCache());
  EXPECT_FALSE(assigned.AccessRead(0x40));
  assigned = std::move(moved);
  EXPECT_TRUE(assigned.AccessRead(0x0));
  EXPECT_FALSE(assigned.AccessRead(0x40));
}

// Brute-force LRU: each set is a list of line tags, most recent first.
class ReferenceLru {
 public:
  explicit ReferenceLru(const CacheConfig& config)
      : config_(config),
        num_sets_(config.capacity_bytes /
                  (static_cast<uint64_t>(config.ways) * config.line_bytes)),
        sets_(num_sets_) {}

  bool Access(uint64_t address, bool write) {
    const uint64_t line = address / config_.line_bytes;
    std::vector<uint64_t>& set = sets_[line % num_sets_];
    const auto it = std::find(set.begin(), set.end(), line);
    const bool hit = it != set.end();
    if (hit) {
      set.erase(it);
      set.insert(set.begin(), line);
      ++hits_;
    } else {
      ++misses_;
      if (!write) {  // No write-allocate.
        set.insert(set.begin(), line);
        if (set.size() > config_.ways) set.pop_back();
      }
    }
    return hit;
  }

  void Flush() {
    for (auto& set : sets_) set.clear();
  }

  uint64_t hits() const { return hits_; }
  uint64_t misses() const { return misses_; }

 private:
  CacheConfig config_;
  uint64_t num_sets_;
  std::vector<std::vector<uint64_t>> sets_;
  uint64_t hits_ = 0;
  uint64_t misses_ = 0;
};

struct Access {
  uint64_t address;
  bool write;
  bool flush_before = false;
  // Moves the cache into a new object and back before this access: the
  // line table and the memo must travel with it.
  bool move_before = false;
};

// Replays `stream` into a Cache and the reference, access by access.
void ExpectMatchesReference(const CacheConfig& config,
                            const std::vector<Access>& stream) {
  Cache cache(config);
  ReferenceLru reference(config);
  for (size_t k = 0; k < stream.size(); ++k) {
    const Access& access = stream[k];
    if (access.flush_before) {
      cache.Flush();
      reference.Flush();
    }
    if (access.move_before) {
      Cache moved(std::move(cache));
      cache = std::move(moved);
    }
    const bool hit = access.write ? cache.AccessWrite(access.address)
                                  : cache.AccessRead(access.address);
    ASSERT_EQ(hit, reference.Access(access.address, access.write))
        << "access " << k << " address " << access.address
        << (access.write ? " write" : " read");
  }
  EXPECT_EQ(cache.hits(), reference.hits());
  EXPECT_EQ(cache.misses(), reference.misses());
  // Not vacuous: the stream both hits and misses.
  EXPECT_GT(cache.hits(), 0u);
  EXPECT_GT(cache.misses(), 0u);
}

TEST(CacheEquivalenceTest, MatchesBruteForceLruOnEveryStreamShape) {
  CacheConfig big = SmallCache();  // 64 sets x 8 ways x 64B.
  big.capacity_bytes = 32 * 1024;
  big.ways = 8;
  for (const CacheConfig& config : {SmallCache(), big}) {
    const uint64_t set_stride =
        config.capacity_bytes / config.ways;  // Same set, next tag.
    const uint64_t span = 4 * config.capacity_bytes;
    Rng rng(config.capacity_bytes);
    // Word-sized steps, so most accesses repeat the previous line.
    std::vector<std::pair<std::string, std::vector<Access>>> streams;
    std::vector<Access> random;
    for (int k = 0; k < 20000; ++k) {
      random.push_back({rng.UniformInt(span), rng.UniformInt(4) == 0});
    }
    streams.emplace_back("random", random);
    std::vector<Access> sequential;
    for (int pass = 0; pass < 3; ++pass) {
      for (uint64_t a = 0; a < 2 * config.capacity_bytes; a += 4) {
        sequential.push_back({a, rng.UniformInt(3) == 0});
      }
    }
    streams.emplace_back("sequential", sequential);
    std::vector<Access> interleaved;
    for (uint64_t a = 0; a < 3 * config.capacity_bytes; a += 4) {
      interleaved.push_back({a, false});
      interleaved.push_back({span + a / 2, (a / 4) % 5 == 0});
    }
    streams.emplace_back("two interleaved sequential", interleaved);
    std::vector<Access> thrash;
    for (int round = 0; round < 50; ++round) {
      for (uint64_t w = 0; w <= config.ways; ++w) {
        for (int repeat = 0; repeat < 3; ++repeat) {
          thrash.push_back({w * set_stride + 4 * repeat, repeat == 2});
        }
      }
    }
    streams.emplace_back("same-set thrash", thrash);
    // A flush between two reads of one line: the second must miss, not
    // answer from the memo.
    std::vector<Access> flushed = random;
    Access& before = flushed[flushed.size() / 2 - 1];
    before.write = false;
    flushed[flushed.size() / 2] = {before.address, false, true};
    streams.emplace_back("flush mid-stream", flushed);
    // Page-aligned arrays 4 KiB apart share a set at every index, as the
    // sorts' key[i] and id[i] do: two and three streams alternate within
    // one set, mostly stepping by a word, sometimes jumping.
    for (const int arrays : {2, 3}) {
      std::vector<Access> same_set;
      uint64_t index = 0;
      for (int k = 0; k < 20000; ++k) {
        index = rng.UniformInt(16) == 0 ? rng.UniformInt(span / 4) : index + 1;
        for (int a = 0; a < arrays; ++a) {
          const uint64_t base = static_cast<uint64_t>(a) * (span + 4096);
          // The last of three arrays is the write target of a merge.
          same_set.push_back({base + 4 * index, a == 2});
        }
      }
      streams.emplace_back(std::to_string(arrays) + " same-set arrays",
                           same_set);
    }
    // Reads and writes over a few more lines than one set holds: write
    // misses must not allocate, and write hits must refresh recency at
    // every position of the row.
    std::vector<Access> mixed;
    for (int k = 0; k < 20000; ++k) {
      const uint64_t way = rng.UniformInt(config.ways + 2);
      mixed.push_back({way * set_stride + 4 * rng.UniformInt(4),
                       rng.UniformInt(2) == 0});
    }
    streams.emplace_back("same-set read/write mix", mixed);
    // A flush and a move partway through the same-set mix.
    std::vector<Access> moved = mixed;
    moved[moved.size() / 3].flush_before = true;
    moved[2 * moved.size() / 3].move_before = true;
    streams.emplace_back("flush and move mid-stream", moved);
    for (const auto& [name, stream] : streams) {
      SCOPED_TRACE(name + " on " + std::to_string(config.capacity_bytes));
      ExpectMatchesReference(config, stream);
    }
  }
}

TEST(CacheHierarchyTest, PaperDefaultGeometry) {
  CacheHierarchy hierarchy = CacheHierarchy::PaperDefault();
  EXPECT_EQ(hierarchy.l1().config().capacity_bytes, 32u * 1024);
  EXPECT_EQ(hierarchy.l2().config().capacity_bytes, 2u * 1024 * 1024);
  EXPECT_EQ(hierarchy.l2().config().ways, 4u);
  EXPECT_EQ(hierarchy.l3().config().capacity_bytes, 32ull * 1024 * 1024);
  EXPECT_EQ(hierarchy.l3().config().ways, 8u);
  EXPECT_DOUBLE_EQ(hierarchy.l3().config().hit_latency_ns, 10.0);
}

TEST(CacheHierarchyTest, ReadFillsAllLevels) {
  CacheHierarchy hierarchy = CacheHierarchy::PaperDefault();
  EXPECT_EQ(hierarchy.Read(0x1234), HitLevel::kMemory);
  EXPECT_EQ(hierarchy.Read(0x1234), HitLevel::kL1);
}

TEST(CacheHierarchyTest, L1EvictionFallsBackToL2) {
  CacheHierarchy hierarchy = CacheHierarchy::PaperDefault();
  hierarchy.Read(0);
  // Stream enough lines through the same L1 set to evict address 0 from L1
  // but not from the much larger L2. L1: 32KB/8way/64B = 64 sets, so lines
  // 64*64B = 4KB apart share a set.
  for (uint64_t i = 1; i <= 8; ++i) hierarchy.Read(i * 4096);
  EXPECT_EQ(hierarchy.Read(0), HitLevel::kL2);
}

TEST(CacheHierarchyTest, LatencyPerLevel) {
  CacheHierarchy hierarchy = CacheHierarchy::PaperDefault();
  EXPECT_GT(hierarchy.LatencyNs(HitLevel::kL2),
            hierarchy.LatencyNs(HitLevel::kL1));
  EXPECT_GT(hierarchy.LatencyNs(HitLevel::kL3),
            hierarchy.LatencyNs(HitLevel::kL2));
  EXPECT_DOUBLE_EQ(hierarchy.LatencyNs(HitLevel::kMemory), 0.0);
}

}  // namespace
}  // namespace approxmem::mem
