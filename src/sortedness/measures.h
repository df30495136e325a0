// Aggregate sortedness report for an array after an approximate sort.
#ifndef APPROXMEM_SORTEDNESS_MEASURES_H_
#define APPROXMEM_SORTEDNESS_MEASURES_H_

#include <cstdint>
#include <vector>

#include "approx/approx_array.h"

namespace approxmem {
class ThreadPool;
}

namespace approxmem::sortedness {

/// Everything Figures 4-7 and Table 3 report about one sorted-in-approx run.
struct SortednessReport {
  size_t n = 0;
  size_t rem = 0;            // Rem(X) via exact LIS.
  double rem_ratio = 0.0;    // Rem / n.
  double error_rate = 0.0;   // Fraction of elements whose value deviates.
  uint64_t inversions = 0;   // Inv(X), the alternative measure.
  double inversion_ratio = 0.0;
  bool sorted = false;       // Rem == 0.
};

/// True iff `values` is non-decreasing.
bool IsSorted(const std::vector<uint32_t>& values);

/// Computes the full report from an array's stored/intended state. Does not
/// touch the array's access counters. With a `pool`, the inversion count's
/// fixed four-part split and the LIS run as pool tasks; the report is the
/// same at every pool size.
SortednessReport Measure(const approx::ApproxArrayU32& array,
                         ThreadPool* pool = nullptr);

/// Computes the report from a plain snapshot (no error-rate information).
SortednessReport Measure(const std::vector<uint32_t>& values);

/// True iff `sorted` is a permutation of `original` (multiset equality).
/// Used by tests and the refine pipeline's verification step.
bool IsPermutationOf(std::vector<uint32_t> original,
                     std::vector<uint32_t> sorted);

}  // namespace approxmem::sortedness

#endif  // APPROXMEM_SORTEDNESS_MEASURES_H_
