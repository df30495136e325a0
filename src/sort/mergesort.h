// Bottom-up mergesort (Section 3.1).
//
// Alternates between the input arrays and scratch buffers, one full pass
// per run-doubling, for n*ceil(log2 n) key writes total — the paper's
// alpha_mergesort(n) ~ n*log2(n).
#ifndef APPROXMEM_SORT_MERGESORT_H_
#define APPROXMEM_SORT_MERGESORT_H_

#include "common/status.h"
#include "sort/sort_common.h"

namespace approxmem::sort {

/// Sorts spec.keys (and spec.ids) ascending by key. Requires
/// spec.alloc_key_buffer (and alloc_id_buffer when ids are present).
Status Mergesort(SortSpec& spec);

}  // namespace approxmem::sort

#endif  // APPROXMEM_SORT_MERGESORT_H_
