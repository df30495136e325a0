// Common interfaces of the sorting algorithms under study.
//
// All algorithms sort 32-bit keys held in an instrumented array, optionally
// co-moving a parallel array of record IDs (the database payload of
// Section 3.2). Scratch buffers are allocated through caller-provided
// allocators so that scratch writes land in the correct precision domain
// (approximate during the approx stage, precise otherwise) and are fully
// accounted.
#ifndef APPROXMEM_SORT_SORT_COMMON_H_
#define APPROXMEM_SORT_SORT_COMMON_H_

#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "approx/approx_array.h"
#include "common/random.h"
#include "common/status.h"

namespace approxmem {
class ThreadPool;
}

namespace approxmem::sort {

/// Allocates a scratch array of `n` words in some precision domain.
using ArrayAlloc = std::function<approx::ApproxArrayU32(size_t)>;

/// Execution tuning shared by every algorithm that supports it. Tuning
/// never changes *what* is computed: the striped radix passes fix their
/// work decomposition by input size alone, so output, write counts, and
/// cost ledgers are identical at any thread count.
struct SortTuning {
  /// Worker pool for the intra-sort parallel passes (null means serial).
  ThreadPool* pool = nullptr;
};

/// The arrays an algorithm sorts plus where its scratch may live.
///
/// `ids`, when non-null, must have the same size as `keys` and is permuted
/// identically (moves of IDs are precise-memory writes in the paper's
/// setup). `alloc_key_buffer` must be set for out-of-place algorithms
/// (mergesort, radix sorts); `alloc_id_buffer` additionally when `ids` is
/// set.
struct SortSpec {
  approx::ApproxArrayU32* keys = nullptr;
  approx::ApproxArrayU32* ids = nullptr;
  ArrayAlloc alloc_key_buffer;
  ArrayAlloc alloc_id_buffer;
  SortTuning tuning;
};

/// Families of sorting algorithms studied by the paper.
enum class SortKind {
  kQuicksort,      // Section 3.1, randomized in-place quicksort.
  kMergesort,      // Section 3.1, bottom-up mergesort.
  kLsdRadix,       // Section 3.1, queue-bucket LSD radix sort.
  kMsdRadix,       // Section 3.1, queue-bucket MSD radix sort.
  kLsdHistogram,   // Appendix B, histogram-based LSD radix sort.
  kMsdHistogram,   // Appendix B, histogram-based MSD radix sort.
};

/// An algorithm instance: kind plus digit width for the radix family
/// (3..6 bits, i.e. 8..64 buckets; ignored by comparison sorts).
struct AlgorithmId {
  SortKind kind = SortKind::kQuicksort;
  int radix_bits = 6;

  /// Display name matching the paper's labels ("6-bit LSD", "Quicksort").
  std::string Name() const;
};

/// Parses a command-line algorithm name: "quicksort", "mergesort", or a
/// radix prefix ("lsd", "msd", "hlsd", "hmsd") followed by a one-digit width
/// 1..9 ("lsd3", "hmsd6"). InvalidArgument for anything else.
StatusOr<AlgorithmId> ParseAlgorithm(std::string_view name);

/// All algorithm instances of the Section 3/5 study (radix at 3..6 bits).
std::vector<AlgorithmId> StudyAlgorithms();

/// The four headline algorithms (6-bit radix variants), Figures 4-7.
std::vector<AlgorithmId> HeadlineAlgorithms();

/// Sorts `spec` with `algorithm`. `rng` drives pivot selection only; error
/// injection uses the arrays' own streams. Returns InvalidArgument if the
/// spec lacks required allocators or sizes mismatch.
Status RunSort(SortSpec& spec, const AlgorithmId& algorithm, Rng& rng);

/// Swaps elements i and j of keys (and ids): two reads + two writes each.
void SwapElements(SortSpec& spec, size_t i, size_t j);

/// Validates spec invariants shared by all algorithms.
Status ValidateSpec(const SortSpec& spec, bool needs_buffers);

}  // namespace approxmem::sort

#endif  // APPROXMEM_SORT_SORT_COMMON_H_
