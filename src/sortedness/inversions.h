// Inv: the inversion-pair count, the alternative sortedness measure the
// paper cites (Estivill-Castro & Wood survey) but does not adopt. Provided
// for cross-checks: Inv = 0 iff Rem = 0 iff sorted.
#ifndef APPROXMEM_SORTEDNESS_INVERSIONS_H_
#define APPROXMEM_SORTEDNESS_INVERSIONS_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <vector>

namespace approxmem {
class ThreadPool;
}

namespace approxmem::sortedness {

/// Number of pairs (i < j) with values[i] > values[j]; O(n log n)
/// merge-counting.
uint64_t InversionCount(const std::vector<uint32_t>& values);

/// The same count with its work on `pool` (serial when null). The input is
/// split into four fixed parts: each is sort-and-counted as a task of its
/// own, then the two pairs of parts are merge-counted, then the halves. The
/// split does not depend on the thread count and the count is an integer,
/// so the result is InversionCount's at every pool size. `alongside`, when
/// set, runs as a fifth task beside the four parts.
uint64_t InversionCount(const std::vector<uint32_t>& values, ThreadPool* pool,
                        const std::function<void()>& alongside);

/// InversionCount normalized by n*(n-1)/2 (0 = sorted, ~0.5 = random,
/// 1 = reverse sorted). 0 for n < 2.
double InversionRatio(const std::vector<uint32_t>& values);

/// The same normalization for an already counted `inversions` over `n`
/// values, so a caller holding the count need not merge-sort again.
double InversionRatio(uint64_t inversions, size_t n);

/// Reference O(n^2) pair count for property tests.
uint64_t InversionCountBruteForce(const std::vector<uint32_t>& values);

}  // namespace approxmem::sortedness

#endif  // APPROXMEM_SORTEDNESS_INVERSIONS_H_
