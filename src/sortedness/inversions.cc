#include "sortedness/inversions.h"

namespace approxmem::sortedness {
namespace {

// Merge-sorts values[lo, hi) through scratch, returning the inversion count.
uint64_t SortAndCount(std::vector<uint32_t>& values,
                      std::vector<uint32_t>& scratch, size_t lo, size_t hi) {
  if (hi - lo < 2) return 0;
  const size_t mid = lo + (hi - lo) / 2;
  uint64_t inversions = SortAndCount(values, scratch, lo, mid) +
                        SortAndCount(values, scratch, mid, hi);
  // Already in order across the halves: no pair straddles mid inverted.
  if (values[mid - 1] <= values[mid]) return inversions;
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

}  // namespace

uint64_t InversionCount(const std::vector<uint32_t>& values) {
  std::vector<uint32_t> work = values;
  std::vector<uint32_t> scratch(values.size());
  return SortAndCount(work, scratch, 0, work.size());
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
