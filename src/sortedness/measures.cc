#include "sortedness/measures.h"

#include <algorithm>

#include "sortedness/inversions.h"
#include "sortedness/lis.h"

namespace approxmem::sortedness {

bool IsSorted(const std::vector<uint32_t>& values) {
  return std::is_sorted(values.begin(), values.end());
}

namespace {

SortednessReport MeasureValues(const std::vector<uint32_t>& values,
                               double error_rate) {
  SortednessReport report;
  report.n = values.size();
  report.rem = Rem(values);
  report.rem_ratio =
      report.n == 0
          ? 0.0
          : static_cast<double>(report.rem) / static_cast<double>(report.n);
  report.error_rate = error_rate;
  report.inversions = InversionCount(values);
  report.inversion_ratio = InversionRatio(report.inversions, report.n);
  report.sorted = report.rem == 0;
  return report;
}

}  // namespace

SortednessReport Measure(const approx::ApproxArrayU32& array) {
  return MeasureValues(array.Snapshot(), array.ErrorRate());
}

SortednessReport Measure(const std::vector<uint32_t>& values) {
  return MeasureValues(values, 0.0);
}

bool IsPermutationOf(std::vector<uint32_t> original,
                     std::vector<uint32_t> sorted) {
  if (original.size() != sorted.size()) return false;
  std::sort(original.begin(), original.end());
  std::sort(sorted.begin(), sorted.end());
  return original == sorted;
}

}  // namespace approxmem::sortedness
