// Resilient execution: a bounded, deterministic retry/escalation ladder
// around the approx-refine pipeline.
//
// The refine stage guarantees an exactly sorted output for any corruption
// of the *approximate* domain — that is the paper's whole point. What it
// cannot absorb is a misbehaving *precise* domain (modeled here by fault
// injection): corrupted IDs or outputs fail verification. SortResilient
// turns that hard failure into a recovery ladder:
//
//   1. kRefineRetry — re-run the refine stage only, against the same
//      approx-stage output. Cures transient read faults (each replayed
//      read re-samples the fault process) at refine-stage cost only.
//   2. kGuardBandEscalation — re-run the whole approx-refine at a tighter
//      target half-width t (t *= escalation_factor, floored at min_t).
//      Fresh allocations move past degraded address regions (the bump
//      allocator never reuses addresses) and the tighter guard band cuts
//      the approximate error rate itself.
//   3. kPreciseFallback — run the identical pipeline with the approximate
//      domain replaced by precise memory: the write-reduction gain is
//      forfeited, correctness is not.
//
// Every rung is bounded and seeded from a dedicated ladder RNG via
// Rng::Split, so a resilient run is exactly replayable. ALL costs — every
// attempt, aborted or not, plus the health monitor's canary traffic — are
// accumulated into one cumulative ledger, and the reported write reduction
// is computed from that cumulative cost against the precise baseline. That
// keeps Equation 2 honest: resilience never gets to hide the price of its
// retries.
#ifndef APPROXMEM_CORE_RESILIENCE_H_
#define APPROXMEM_CORE_RESILIENCE_H_

#include <cstdint>
#include <limits>
#include <string_view>
#include <vector>

#include "approx/health_monitor.h"
#include "approx/memory_stats.h"
#include "common/status.h"
#include "core/engine.h"
#include "refine/approx_refine.h"
#include "sort/sort_common.h"

namespace approxmem::core {

/// Which rung of the ladder an attempt ran on.
enum class AttemptPolicy : uint8_t {
  kInitial = 0,
  kRefineRetry,
  kGuardBandEscalation,
  kPreciseFallback,
};

/// "INITIAL", "REFINE_RETRY", "GUARD_BAND_ESCALATION", "PRECISE_FALLBACK".
std::string_view AttemptPolicyName(AttemptPolicy policy);

/// Ladder bounds: at most (1 + max_escalations + 1 precise fallback) full
/// runs, each with up to max_refine_retries refine-only re-runs.
struct ResilienceOptions {
  /// Refine-only re-runs per full attempt (rung 1).
  int max_refine_retries = 1;
  /// Guard-band escalations (rung 2); each multiplies the knob by
  /// escalation_factor, floored at min_t.
  int max_escalations = 2;
  double escalation_factor = 0.5;
  /// Floor of the escalation ladder, in the backend's knob unit. NaN (the
  /// default) means "the backend's own floor" (MemoryBackend::min_knob):
  /// the precise half-width 0.025 on the PCM backends, the most
  /// conservative paper operating point 1e-7 on spintronic.
  double min_t = std::numeric_limits<double>::quiet_NaN();
  /// End-of-life interaction: when the health monitor quarantined new
  /// regions *during* a failed attempt, the substrate visibly degraded
  /// under it — re-reading the same placement (rung 1) cannot cure
  /// persistent damage, so skip straight to guard-band escalation, whose
  /// fresh allocations route around the dead region. Off by default to
  /// preserve historical ladder digests; the sort service enables it for
  /// endurance-modeled substrates.
  bool skip_retry_on_quarantine = false;
  /// Print a one-line diagnostic to stderr for every failed attempt.
  bool log_diagnostics = false;
};

/// One attempt's outcome: what ran, with what guard band, what it cost,
/// and how it failed (if it did).
struct AttemptRecord {
  AttemptPolicy policy = AttemptPolicy::kInitial;
  /// Target-range half-width of the attempt's approximate domain (the
  /// precise T width for a kPreciseFallback attempt).
  double t = 0.0;
  Status status;
  bool verified = false;
  refine::VerificationReport verification;
  size_t rem_estimate = 0;
  /// Marginal cost of this attempt: a full run charges all five ledgers, a
  /// refine-only retry charges just the refine stage it re-ran.
  approx::MemoryStats cost;
};

/// Outcome of a resilient sort: the final result plus the whole ladder's
/// history and its honest cumulative cost.
struct ResilienceReport {
  size_t n = 0;
  /// True iff some attempt produced a verified, exactly sorted output.
  bool verified = false;
  AttemptPolicy final_policy = AttemptPolicy::kInitial;
  /// Half-width of the attempt that produced the final output.
  double final_t = 0.0;
  std::vector<AttemptRecord> attempts;
  /// Sum of every attempt's marginal cost plus the canary probe traffic
  /// spent during this call — the true price of the resilient execution.
  approx::MemoryStats cumulative;
  /// Canary-probe share of `cumulative` (zero when monitoring is off).
  approx::MemoryStats canary_costs;
  /// Health monitor counters as of the end of the call.
  approx::HealthStats health;
  /// The attempt that produced the final output (last attempt when none
  /// verified).
  refine::RefineReport refine;
  refine::PreciseBaselineReport baseline;
  /// Equation 2 over the CUMULATIVE cost: 1 - cumulative write cost /
  /// precise baseline write cost. Negative when resilience cost more than
  /// sorting precisely outright.
  double write_reduction = 0.0;

  /// FNV-1a 64 digest of the attempt sequence (policy, t, status code,
  /// verification outcome, access counts) — equal digests mean the ladder
  /// replayed identically, e.g. across thread counts.
  uint64_t AttemptDigest() const;
};

/// Sorts `keys` through `engine`'s approx-refine pipeline at half-width
/// `t`, climbing the retry/escalation ladder until an attempt verifies or
/// the ladder is exhausted. Returns an error only for non-retryable
/// failures (bad arguments, unknown algorithm); an exhausted ladder
/// returns a report with verified == false. `final_keys`/`final_ids`
/// receive the final attempt's output when non-null.
StatusOr<ResilienceReport> SortResilient(
    ApproxSortEngine& engine, const std::vector<uint32_t>& keys,
    const sort::AlgorithmId& algorithm, double t,
    const ResilienceOptions& options = {},
    std::vector<uint32_t>* final_keys = nullptr,
    std::vector<uint32_t>* final_ids = nullptr);

}  // namespace approxmem::core

#endif  // APPROXMEM_CORE_RESILIENCE_H_
