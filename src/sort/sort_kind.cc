#include <string>
#include <string_view>
#include <utility>

#include "sort/mergesort.h"
#include "sort/quicksort.h"
#include "sort/radix_lsd.h"
#include "sort/radix_msd.h"
#include "sort/sort_common.h"

namespace approxmem::sort {

std::string AlgorithmId::Name() const {
  switch (kind) {
    case SortKind::kQuicksort:
      return "Quicksort";
    case SortKind::kMergesort:
      return "Mergesort";
    case SortKind::kLsdRadix:
      return std::to_string(radix_bits) + "-bit LSD";
    case SortKind::kMsdRadix:
      return std::to_string(radix_bits) + "-bit MSD";
    case SortKind::kLsdHistogram:
      return std::to_string(radix_bits) + "-bit hist-LSD";
    case SortKind::kMsdHistogram:
      return std::to_string(radix_bits) + "-bit hist-MSD";
  }
  return "Unknown";
}

StatusOr<AlgorithmId> ParseAlgorithm(std::string_view name) {
  if (name == "quicksort") return AlgorithmId{SortKind::kQuicksort, 0};
  if (name == "mergesort") return AlgorithmId{SortKind::kMergesort, 0};
  constexpr std::pair<std::string_view, SortKind> kRadixPrefixes[] = {
      {"lsd", SortKind::kLsdRadix},
      {"msd", SortKind::kMsdRadix},
      {"hlsd", SortKind::kLsdHistogram},
      {"hmsd", SortKind::kMsdHistogram}};
  for (const auto& [prefix, kind] : kRadixPrefixes) {
    if (name.size() == prefix.size() + 1 && name.starts_with(prefix) &&
        name.back() >= '1' && name.back() <= '9') {
      return AlgorithmId{kind, name.back() - '0'};
    }
  }
  return Status::InvalidArgument("unknown algorithm: " + std::string(name));
}

std::vector<AlgorithmId> StudyAlgorithms() {
  std::vector<AlgorithmId> algorithms;
  for (int bits = 3; bits <= 6; ++bits) {
    algorithms.push_back(AlgorithmId{SortKind::kLsdRadix, bits});
  }
  for (int bits = 3; bits <= 6; ++bits) {
    algorithms.push_back(AlgorithmId{SortKind::kMsdRadix, bits});
  }
  algorithms.push_back(AlgorithmId{SortKind::kQuicksort, 0});
  algorithms.push_back(AlgorithmId{SortKind::kMergesort, 0});
  return algorithms;
}

std::vector<AlgorithmId> HeadlineAlgorithms() {
  // The paper's "LSD" and "MSD" default to 6-bit (Section 3.1).
  return {AlgorithmId{SortKind::kLsdRadix, 6},
          AlgorithmId{SortKind::kMsdRadix, 6},
          AlgorithmId{SortKind::kQuicksort, 0},
          AlgorithmId{SortKind::kMergesort, 0}};
}

Status ValidateSpec(const SortSpec& spec, bool needs_buffers) {
  if (spec.keys == nullptr) {
    return Status::InvalidArgument("SortSpec.keys must be set");
  }
  if (spec.ids != nullptr && spec.ids->size() != spec.keys->size()) {
    return Status::InvalidArgument("ids size must match keys size");
  }
  if (needs_buffers) {
    if (!spec.alloc_key_buffer) {
      return Status::InvalidArgument(
          "out-of-place sort requires alloc_key_buffer");
    }
    if (spec.ids != nullptr && !spec.alloc_id_buffer) {
      return Status::InvalidArgument(
          "out-of-place sort with ids requires alloc_id_buffer");
    }
  }
  return Status::Ok();
}

void SwapElements(SortSpec& spec, size_t i, size_t j) {
  approx::ApproxArrayU32& keys = *spec.keys;
  const uint32_t key_i = keys.Get(i);
  const uint32_t key_j = keys.Get(j);
  keys.Set(i, key_j);
  keys.Set(j, key_i);
  if (spec.ids != nullptr) {
    approx::ApproxArrayU32& ids = *spec.ids;
    const uint32_t id_i = ids.Get(i);
    const uint32_t id_j = ids.Get(j);
    ids.Set(i, id_j);
    ids.Set(j, id_i);
  }
}

Status RunSort(SortSpec& spec, const AlgorithmId& algorithm, Rng& rng) {
  switch (algorithm.kind) {
    case SortKind::kQuicksort:
      return Quicksort(spec, rng);
    case SortKind::kMergesort:
      return Mergesort(spec);
    case SortKind::kLsdRadix:
      return LsdRadixSort(spec, algorithm.radix_bits);
    case SortKind::kMsdRadix:
      return MsdRadixSort(spec, algorithm.radix_bits);
    case SortKind::kLsdHistogram:
      return LsdHistogramSort(spec, algorithm.radix_bits);
    case SortKind::kMsdHistogram:
      return MsdHistogramSort(spec, algorithm.radix_bits);
  }
  return Status::InvalidArgument("unknown sort kind");
}

}  // namespace approxmem::sort
