// Histogram-based radix sorts (Appendix B).
//
// Models the write pattern of the Polychroniou & Ross (SIGMOD'14)
// partitioning-based radix sorts: each pass first builds a histogram of
// digit counts (reads only), then scatters every element directly to its
// final slot in the other buffer (exactly one key write per element per
// pass). Compared with the queue-bucket implementations this halves the
// key writes per pass, which is why Appendix B observes slightly smaller
// write reductions from approximate memory. SIMD is not modeled: vector
// lanes change CPU time, not the number or order of memory writes, which
// is the metric under study (see DESIGN.md, substitutions).
#ifndef APPROXMEM_SORT_RADIX_HISTOGRAM_H_
#define APPROXMEM_SORT_RADIX_HISTOGRAM_H_

#include "common/status.h"
#include "sort/sort_common.h"

namespace approxmem::sort {

/// Histogram-based LSD radix sort: ceil(32/bits) stable counting passes,
/// ping-ponging between the input and one scratch buffer. Each pass reads
/// every element once (counting digits and stashing the observed value in
/// DRAM) and writes it once, straight to its final slot in the other
/// buffer. The striped passes run on spec.tuning.pool; results never depend
/// on the thread count.
Status LsdHistogramSort(SortSpec& spec, int bits);

/// Histogram-based MSD radix sort: recursive counting partition, scattering
/// between buffers per level, with a parity copy at the leaves.
Status MsdHistogramSort(SortSpec& spec, int bits);

}  // namespace approxmem::sort

#endif  // APPROXMEM_SORT_RADIX_HISTOGRAM_H_
