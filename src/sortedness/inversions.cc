#include "sortedness/inversions.h"

#include "sort/radix_common.h"

namespace approxmem::sortedness {
namespace {

// Merges the sorted adjacent ranges values[lo, mid) and values[mid, hi)
// through scratch, returning the inverted pairs that straddle mid.
uint64_t MergeAndCount(std::vector<uint32_t>& values,
                       std::vector<uint32_t>& scratch, size_t lo, size_t mid,
                       size_t hi) {
  // Already in order across the halves: no pair straddles mid inverted.
  if (lo == mid || mid == hi || values[mid - 1] <= values[mid]) return 0;
  uint64_t inversions = 0;
  size_t left = lo;
  size_t right = mid;
  for (size_t out = lo; out < hi; ++out) {
    if (left < mid && (right >= hi || values[left] <= values[right])) {
      scratch[out] = values[left++];
    } else {
      if (left < mid) inversions += mid - left;
      scratch[out] = values[right++];
    }
  }
  for (size_t i = lo; i < hi; ++i) values[i] = scratch[i];
  return inversions;
}

// Merge-sorts values[lo, hi) through scratch, returning the inversion count.
uint64_t SortAndCount(std::vector<uint32_t>& values,
                      std::vector<uint32_t>& scratch, size_t lo, size_t hi) {
  if (hi - lo < 2) return 0;
  const size_t mid = lo + (hi - lo) / 2;
  const uint64_t inside = SortAndCount(values, scratch, lo, mid) +
                          SortAndCount(values, scratch, mid, hi);
  return inside + MergeAndCount(values, scratch, lo, mid, hi);
}

}  // namespace

uint64_t InversionCount(const std::vector<uint32_t>& values) {
  return InversionCount(values, nullptr, nullptr);
}

uint64_t InversionCount(const std::vector<uint32_t>& values, ThreadPool* pool,
                        const std::function<void()>& alongside) {
  std::vector<uint32_t> work = values;
  std::vector<uint32_t> scratch(values.size());
  const size_t n = values.size();
  // A fixed split, not one per thread: parts, pairs of parts, halves.
  constexpr size_t kParts = 4;
  size_t bound[kParts + 1];
  for (size_t p = 0; p <= kParts; ++p) bound[p] = p * n / kParts;
  uint64_t counts[kParts + 2] = {};
  const size_t tasks = alongside ? kParts + 1 : kParts;
  sort::RunStripes(pool, /*concurrent_ok=*/true, tasks, [&](size_t t) {
    if (t == kParts) {
      alongside();
    } else {
      counts[t] = SortAndCount(work, scratch, bound[t], bound[t + 1]);
    }
  });
  sort::RunStripes(pool, /*concurrent_ok=*/true, 2, [&](size_t h) {
    counts[kParts + h] = MergeAndCount(work, scratch, bound[2 * h],
                                       bound[2 * h + 1], bound[2 * h + 2]);
  });
  uint64_t inversions = MergeAndCount(work, scratch, 0, bound[2], n);
  for (const uint64_t count : counts) inversions += count;
  return inversions;
}

double InversionRatio(const std::vector<uint32_t>& values) {
  return InversionRatio(InversionCount(values), values.size());
}

double InversionRatio(uint64_t inversions, size_t n) {
  if (n < 2) return 0.0;
  const double max_pairs =
      static_cast<double>(n) * static_cast<double>(n - 1) / 2.0;
  return static_cast<double>(inversions) / max_pairs;
}

uint64_t InversionCountBruteForce(const std::vector<uint32_t>& values) {
  uint64_t inversions = 0;
  for (size_t i = 0; i < values.size(); ++i) {
    for (size_t j = i + 1; j < values.size(); ++j) {
      if (values[i] > values[j]) ++inversions;
    }
  }
  return inversions;
}

}  // namespace approxmem::sortedness
