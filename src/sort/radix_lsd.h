// Least-significant-digit radix sort with queue buckets (Section 3.1).
//
// The implementation is a striped counting scatter: each pass reads the
// input once per stripe (building per-stripe digit histograms), prefix-sums
// the histograms into disjoint per-(bucket, stripe) output windows, and
// scatters through them. The stripe plan depends on n alone, and every
// stripe draws from its own RNG substream, so output, write counts, and
// cost ledgers are identical at any thread count. Simulated access counts
// match the classic queue formulation: two reads and two writes per
// element per pass.
#ifndef APPROXMEM_SORT_RADIX_LSD_H_
#define APPROXMEM_SORT_RADIX_LSD_H_

#include "common/status.h"
#include "sort/sort_common.h"

namespace approxmem::sort {

/// Sorts spec.keys (and spec.ids) ascending by key. ceil(32/bits) stable
/// passes from the least significant digit; each pass moves every element
/// into its bucket window (one write) and back (one write). Requires
/// spec.alloc_key_buffer (and alloc_id_buffer when ids are set). `bits` is
/// the digit width (the paper evaluates 3..6; 1..16 accepted); the striped
/// passes run on spec.tuning.pool.
Status LsdRadixSort(SortSpec& spec, int bits);

}  // namespace approxmem::sort

#endif  // APPROXMEM_SORT_RADIX_LSD_H_
