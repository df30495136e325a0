// Least-significant-digit radix sorts: queue buckets (Section 3.1) and
// histogram partitioning (Appendix B), run by one striped pass engine.
//
// Each pass reads the input once per stripe (building per-stripe digit
// histograms), prefix-sums the histograms into disjoint per-(bucket,
// stripe) windows of the scratch buffer, and scatters through them. The
// stripe plan depends on n alone, and every stripe draws from its own RNG
// substream, so output, write counts, and cost ledgers are identical at
// any thread count. The two kinds differ only in where a pass leaves its
// output:
//
//  - Queue buckets drain the scratch windows back into the input, as the
//    classic queue formulation does: two reads and two writes per element
//    per pass.
//  - Histogram partitioning models the write pattern of the Polychroniou &
//    Ross (SIGMOD'14) partitioning-based radix sorts: every element goes
//    straight to its final slot in the other buffer, and the buffers swap
//    roles (one read and one write per element per pass, plus a copy back
//    after an odd pass count). Halving the key writes per pass is why
//    Appendix B observes slightly smaller write reductions from
//    approximate memory. SIMD is not modeled: vector lanes change CPU
//    time, not the number or order of memory writes, which is the metric
//    under study (see DESIGN.md, substitutions).
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

/// Histogram-based LSD radix sort: the same passes, ping-ponging between
/// the input and one scratch buffer. Each pass reads every element once
/// (counting digits and stashing the observed value in DRAM) and writes it
/// once, straight to its final slot in the other buffer.
Status LsdHistogramSort(SortSpec& spec, int bits);

}  // namespace approxmem::sort

#endif  // APPROXMEM_SORT_RADIX_LSD_H_
