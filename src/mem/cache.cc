#include "mem/cache.h"

#include <sys/mman.h>

#include <algorithm>
#include <bit>
#include <new>
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
  // Lines of 2 bytes or more keep every tag + 1 nonzero (see Cache).
  if (!IsPowerOfTwo(line_bytes) || line_bytes < 2) {
    return Status::InvalidArgument(
        "line_bytes must be a power of two of at least 2");
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
  void* pages = mmap(nullptr, count * sizeof(uint64_t), PROT_READ | PROT_WRITE,
                     MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (pages == MAP_FAILED) throw std::bad_alloc();
  entries_ = static_cast<uint64_t*>(pages);
}

Cache::LineTable::LineTable(LineTable&& other) noexcept
    : entries_(std::exchange(other.entries_, nullptr)),
      count_(std::exchange(other.count_, 0)) {}

Cache::LineTable& Cache::LineTable::operator=(LineTable&& other) noexcept {
  std::swap(entries_, other.entries_);
  std::swap(count_, other.count_);
  return *this;
}

Cache::LineTable::~LineTable() {
  if (entries_ != nullptr) munmap(entries_, count_ * sizeof(uint64_t));
}

Cache::Cache(const CacheConfig& config)
    : config_(config),
      num_sets_(NumSets(config)),
      line_shift_(static_cast<uint32_t>(std::countr_zero(config.line_bytes))),
      set_shift_(static_cast<uint32_t>(std::countr_zero(num_sets_))),
      rows_(static_cast<size_t>(num_sets_) * config.ways) {}

void Cache::ResetStats() {
  hits_ = 0;
  misses_ = 0;
}

void Cache::Flush() {
  std::fill(rows_.data(), rows_.data() + rows_.size(), uint64_t{0});
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
