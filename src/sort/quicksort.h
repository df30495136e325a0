// Randomized in-place quicksort (Section 3.1).
//
// Hoare partitioning with a uniformly random pivot (the paper randomizes
// the pivot to dodge O(n^2) worst cases) and an insertion-sort cutoff for
// small partitions. Every element move is two simulated reads and two
// simulated writes (key + id), so write counts match the paper's
// alpha_quicksort(n) ~ n*log2(n)/2 accounting.
#ifndef APPROXMEM_SORT_QUICKSORT_H_
#define APPROXMEM_SORT_QUICKSORT_H_

#include "common/random.h"
#include "common/status.h"
#include "sort/sort_common.h"

namespace approxmem::sort {

/// Sorts spec.keys (and spec.ids) ascending by key. In-place; needs no
/// scratch allocators.
Status Quicksort(SortSpec& spec, Rng& rng);

/// Insertion-sorts the closed range [lo, hi] of spec. Exposed for the MSD
/// radix small-bucket cutoff and for tests.
void InsertionSortRange(SortSpec& spec, size_t lo, size_t hi);

}  // namespace approxmem::sort

#endif  // APPROXMEM_SORT_QUICKSORT_H_
