// Most-significant-digit radix sorts: queue buckets (Section 3.1) and
// histogram partitioning (Appendix B), run by one segment-stack driver.
//
// Both partition a segment by its top unsorted digit and push the buckets
// as new segments; small segments finish with insertion sort. The kinds
// differ only in the partition step. Queue buckets push the segment
// through queues in the scratch buffer and drain them back, so the data
// stays in the input. Histogram partitioning models the Polychroniou &
// Ross (SIGMOD'14) write pattern: a read-only digit count, then one write
// per element straight to its bucket in the other buffer, so segments
// alternate between the buffers level by level and a leaf left in the
// scratch buffer is copied back before its insertion sort.
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

/// Histogram-based MSD radix sort: recursive counting partition, scattering
/// between buffers per level, with a copy back at the leaves.
Status MsdHistogramSort(SortSpec& spec, int bits);

}  // namespace approxmem::sort

#endif  // APPROXMEM_SORT_RADIX_MSD_H_
