// Most-significant-digit radix sort with queue buckets (Section 3.1).
#ifndef APPROXMEM_SORT_RADIX_MSD_H_
#define APPROXMEM_SORT_RADIX_MSD_H_

#include "common/status.h"
#include "sort/sort_common.h"

namespace approxmem::sort {

/// Sorts spec.keys (and spec.ids) ascending by key. Recursively partitions
/// from the most significant digit using bucket queues; like quicksort,
/// later levels touch ever-smaller ranges, which localizes the damage of
/// earlier corrupted writes (Section 3.5). Requires spec.alloc_key_buffer
/// (and alloc_id_buffer when ids are set). `bits` is the digit width (the
/// paper evaluates 3..6; 1..16 accepted).
Status MsdRadixSort(SortSpec& spec, int bits);

}  // namespace approxmem::sort

#endif  // APPROXMEM_SORT_RADIX_MSD_H_
