#include "approx/health_monitor.h"

namespace approxmem::approx {
namespace {

// Deterministic canary pattern for slot `i`: alternating-bit base xored
// with a SplitMix-style index hash, so both bit polarities and all bit
// positions are exercised across a probe site.
uint32_t CanaryPattern(size_t i) {
  uint32_t h = static_cast<uint32_t>(i) * 0x9e3779b9u;
  h ^= h >> 16;
  return 0xa5a5a5a5u ^ h;
}

}  // namespace

uint64_t HealthMonitor::ProbeSite(ApproxArrayU32& canaries) {
  const size_t words = canaries.size();
  uint64_t errors = 0;
  for (size_t i = 0; i < words; ++i) {
    canaries.Set(i, CanaryPattern(i));
  }
  for (size_t i = 0; i < words; ++i) {
    if (canaries.Get(i) != CanaryPattern(i)) ++errors;
  }
  stats_.canary_writes += words;
  stats_.canary_errors += errors;
  stats_.canary_costs += canaries.stats();
  canaries.ResetStats();
  return errors;
}

}  // namespace approxmem::approx
