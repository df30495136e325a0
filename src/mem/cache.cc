#include "mem/cache.h"

#include <sys/mman.h>

#include <bit>
#include <new>
#include <type_traits>
#include <utility>

#include "common/check.h"

namespace approxmem::mem {
namespace {

bool IsPowerOfTwo(uint64_t x) { return x != 0 && (x & (x - 1)) == 0; }

uint32_t NumSets(const CacheConfig& config) {
  APPROXMEM_CHECK_OK(config.Validate());
  return static_cast<uint32_t>(
      config.capacity_bytes /
      (static_cast<uint64_t>(config.ways) * config.line_bytes));
}

}  // namespace

Status CacheConfig::Validate() const {
  if (!IsPowerOfTwo(line_bytes)) {
    return Status::InvalidArgument("line_bytes must be a power of two");
  }
  if (ways == 0) return Status::InvalidArgument("ways must be positive");
  if (capacity_bytes % (static_cast<uint64_t>(ways) * line_bytes) != 0) {
    return Status::InvalidArgument(
        "capacity must be a multiple of ways * line_bytes");
  }
  const uint64_t sets = capacity_bytes / (static_cast<uint64_t>(ways) *
                                          line_bytes);
  if (!IsPowerOfTwo(sets)) {
    return Status::InvalidArgument("number of sets must be a power of two");
  }
  if (hit_latency_ns < 0.0) {
    return Status::InvalidArgument("hit_latency_ns must be non-negative");
  }
  return Status::Ok();
}

Cache::LineTable::LineTable(size_t count) : count_(count) {
  static_assert(std::is_trivially_copyable_v<Line> && sizeof(Line) == 16);
  void* pages = mmap(nullptr, count * sizeof(Line), PROT_READ | PROT_WRITE,
                     MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (pages == MAP_FAILED) throw std::bad_alloc();
  lines_ = static_cast<Line*>(pages);
}

Cache::LineTable::LineTable(LineTable&& other) noexcept
    : lines_(std::exchange(other.lines_, nullptr)),
      count_(std::exchange(other.count_, 0)) {}

Cache::LineTable& Cache::LineTable::operator=(LineTable&& other) noexcept {
  std::swap(lines_, other.lines_);
  std::swap(count_, other.count_);
  return *this;
}

Cache::LineTable::~LineTable() {
  if (lines_ != nullptr) munmap(lines_, count_ * sizeof(Line));
}

Cache::Cache(const CacheConfig& config)
    : config_(config),
      num_sets_(NumSets(config)),
      line_shift_(static_cast<uint32_t>(std::countr_zero(config.line_bytes))),
      set_shift_(static_cast<uint32_t>(std::countr_zero(num_sets_))),
      lines_(static_cast<size_t>(num_sets_) * config.ways) {}

int Cache::FindWay(uint32_t set, uint64_t tag) const {
  const Line* base = &lines_[static_cast<size_t>(set) * config_.ways];
  for (uint32_t w = 0; w < config_.ways; ++w) {
    if (base[w].tag_plus_one == tag + 1) return static_cast<int>(w);
  }
  return -1;
}

void Cache::Touch(uint32_t set, int way) {
  lines_[static_cast<size_t>(set) * config_.ways + static_cast<size_t>(way)]
      .last_used = ++clock_;
}

void Cache::Install(uint32_t set, uint64_t tag) {
  Line* base = &lines_[static_cast<size_t>(set) * config_.ways];
  uint32_t victim = 0;
  uint64_t oldest = ~uint64_t{0};
  for (uint32_t w = 0; w < config_.ways; ++w) {
    if (base[w].tag_plus_one == 0) {
      victim = w;
      break;
    }
    if (base[w].last_used < oldest) {
      oldest = base[w].last_used;
      victim = w;
    }
  }
  base[victim] = Line{tag + 1, ++clock_};
}

bool Cache::Access(uint64_t line, bool allocate) {
  const uint32_t set = static_cast<uint32_t>(line & (num_sets_ - 1));
  const uint64_t tag = line >> set_shift_;
  const int way = FindWay(set, tag);
  if (way >= 0) {
    Touch(set, way);
    ++hits_;
    return true;
  }
  ++misses_;
  if (allocate) Install(set, tag);
  return false;
}

bool Cache::AccessRead(uint64_t address) {
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

bool Cache::AccessWrite(uint64_t address) {
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

void Cache::ResetStats() {
  hits_ = 0;
  misses_ = 0;
}

void Cache::Flush() {
  for (size_t i = 0; i < lines_.size(); ++i) lines_[i] = Line{};
  memo_line_ = ~uint64_t{0};
  memo_present_ = false;
}

CacheHierarchy CacheHierarchy::PaperDefault() {
  CacheConfig l1;
  l1.capacity_bytes = 32 * 1024;
  l1.ways = 8;
  l1.line_bytes = 64;
  l1.hit_latency_ns = 1.0;
  CacheConfig l2;
  l2.capacity_bytes = 2 * 1024 * 1024;
  l2.ways = 4;
  l2.line_bytes = 64;
  l2.hit_latency_ns = 4.0;
  CacheConfig l3;
  l3.capacity_bytes = 32ull * 1024 * 1024;
  l3.ways = 8;
  l3.line_bytes = 64;
  l3.hit_latency_ns = 10.0;  // Table 1: 10ns L3 access latency.
  return CacheHierarchy(l1, l2, l3);
}

CacheHierarchy::CacheHierarchy(const CacheConfig& l1, const CacheConfig& l2,
                               const CacheConfig& l3)
    : l1_(l1), l2_(l2), l3_(l3) {}

HitLevel CacheHierarchy::Read(uint64_t address) {
  if (l1_.AccessRead(address)) return HitLevel::kL1;
  if (l2_.AccessRead(address)) return HitLevel::kL2;
  if (l3_.AccessRead(address)) return HitLevel::kL3;
  return HitLevel::kMemory;
}

void CacheHierarchy::Write(uint64_t address) {
  l1_.AccessWrite(address);
  l2_.AccessWrite(address);
  l3_.AccessWrite(address);
}

double CacheHierarchy::LatencyNs(HitLevel level) const {
  switch (level) {
    case HitLevel::kL1:
      return l1_.config().hit_latency_ns;
    case HitLevel::kL2:
      return l2_.config().hit_latency_ns;
    case HitLevel::kL3:
      return l3_.config().hit_latency_ns;
    case HitLevel::kMemory:
      return 0.0;
  }
  return 0.0;
}

void CacheHierarchy::ResetStats() {
  l1_.ResetStats();
  l2_.ResetStats();
  l3_.ResetStats();
}

void CacheHierarchy::Flush() {
  l1_.Flush();
  l2_.Flush();
  l3_.Flush();
}

}  // namespace approxmem::mem
