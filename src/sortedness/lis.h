// Longest increasing subsequence and the Rem measure (Section 3.3).
//
// Rem(X) = n - max{k | X has an ascending subsequence of length k}: the
// number of elements that must be removed to leave a sorted sequence.
// "Ascending" is non-decreasing, since duplicates are sorted data.
#ifndef APPROXMEM_SORTEDNESS_LIS_H_
#define APPROXMEM_SORTEDNESS_LIS_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace approxmem::sortedness {

/// Length of the longest non-decreasing subsequence, O(n log n) patience
/// algorithm. Empty input yields 0.
size_t LongestNonDecreasingSubsequence(const std::vector<uint32_t>& values);

/// The same, building the piles in `tails` (cleared first, its capacity
/// reused), so that the caller decides which thread allocates it.
size_t LongestNonDecreasingSubsequence(const std::vector<uint32_t>& values,
                                       std::vector<uint32_t>& tails);

/// Rem(X) = |X| - LIS(X).
size_t Rem(const std::vector<uint32_t>& values);

/// Rem(X) / |X|; 0 for empty input. The paper's headline sortedness metric.
double RemRatio(const std::vector<uint32_t>& values);

/// Reference O(n^2) implementation for property tests.
size_t LongestNonDecreasingSubsequenceBruteForce(
    const std::vector<uint32_t>& values);

/// Marks one longest non-decreasing subsequence: out[i] == 1 iff element i
/// belongs to the reconstructed LIS. O(n log n) time; unlike the Listing 1
/// heuristic it needs O(n) intermediate state (predecessor links), which is
/// why the paper prefers the heuristic on write-limited memory.
std::vector<uint8_t> LongestNonDecreasingMembership(
    const std::vector<uint32_t>& values);

}  // namespace approxmem::sortedness

#endif  // APPROXMEM_SORTEDNESS_LIS_H_
