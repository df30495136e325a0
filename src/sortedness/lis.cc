#include "sortedness/lis.h"

#include <algorithm>

namespace approxmem::sortedness {

size_t LongestNonDecreasingSubsequence(const std::vector<uint32_t>& values) {
  // Patience sorting: tails[k] is the smallest possible tail of a
  // non-decreasing subsequence of length k+1. upper_bound keeps runs of
  // equal values extendable (non-decreasing, not strictly increasing).
  std::vector<uint32_t> tails;
  tails.reserve(values.size() / 4);
  for (const uint32_t v : values) {
    // Nearly sorted input mostly extends the longest pile: skip the search.
    if (tails.empty() || v >= tails.back()) {
      tails.push_back(v);
      continue;
    }
    *std::upper_bound(tails.begin(), tails.end(), v) = v;
  }
  return tails.size();
}

size_t Rem(const std::vector<uint32_t>& values) {
  return values.size() - LongestNonDecreasingSubsequence(values);
}

double RemRatio(const std::vector<uint32_t>& values) {
  if (values.empty()) return 0.0;
  return static_cast<double>(Rem(values)) /
         static_cast<double>(values.size());
}

std::vector<uint8_t> LongestNonDecreasingMembership(
    const std::vector<uint32_t>& values) {
  const size_t n = values.size();
  std::vector<uint8_t> member(n, 0);
  if (n == 0) return member;

  constexpr size_t kNone = static_cast<size_t>(-1);
  std::vector<uint32_t> tails;       // Smallest tail value per length.
  std::vector<size_t> tail_index;    // Index of that tail element.
  std::vector<size_t> prev(n, kNone);  // Predecessor links.
  for (size_t i = 0; i < n; ++i) {
    const auto it =
        tails.empty() || values[i] >= tails.back()
            ? tails.end()
            : std::upper_bound(tails.begin(), tails.end(), values[i]);
    const size_t pile = static_cast<size_t>(it - tails.begin());
    prev[i] = pile == 0 ? kNone : tail_index[pile - 1];
    if (it == tails.end()) {
      tails.push_back(values[i]);
      tail_index.push_back(i);
    } else {
      *it = values[i];
      tail_index[pile] = i;
    }
  }
  // Walk back from the tail of the longest pile.
  for (size_t i = tail_index.back(); i != kNone; i = prev[i]) member[i] = 1;
  return member;
}

size_t LongestNonDecreasingSubsequenceBruteForce(
    const std::vector<uint32_t>& values) {
  const size_t n = values.size();
  if (n == 0) return 0;
  std::vector<size_t> best(n, 1);
  size_t longest = 1;
  for (size_t i = 1; i < n; ++i) {
    for (size_t j = 0; j < i; ++j) {
      if (values[j] <= values[i]) best[i] = std::max(best[i], best[j] + 1);
    }
    longest = std::max(longest, best[i]);
  }
  return longest;
}

}  // namespace approxmem::sortedness
