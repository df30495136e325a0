#include "core/resilience.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>
#include <utility>

#include "common/hash.h"

namespace approxmem::core {

std::string_view AttemptPolicyName(AttemptPolicy policy) {
  switch (policy) {
    case AttemptPolicy::kInitial:
      return "INITIAL";
    case AttemptPolicy::kRefineRetry:
      return "REFINE_RETRY";
    case AttemptPolicy::kGuardBandEscalation:
      return "GUARD_BAND_ESCALATION";
    case AttemptPolicy::kPreciseFallback:
      return "PRECISE_FALLBACK";
  }
  return "UNKNOWN";
}

uint64_t ResilienceReport::AttemptDigest() const {
  uint64_t h = kFnv1a64Offset;
  h = Fnv1a64Word(h, static_cast<uint64_t>(attempts.size()));
  for (const AttemptRecord& a : attempts) {
    h = Fnv1a64Word(h, static_cast<uint64_t>(a.policy));
    h = Fnv1a64Word(h, std::bit_cast<uint64_t>(a.t));
    h = Fnv1a64Word(h, static_cast<uint64_t>(a.status.code()));
    h = Fnv1a64Word(h, a.verified ? 1 : 0);
    h = Fnv1a64Word(h, static_cast<uint64_t>(a.verification.failure));
    h = Fnv1a64Word(h, static_cast<uint64_t>(a.rem_estimate));
    h = Fnv1a64Word(h, a.cost.word_writes);
    h = Fnv1a64Word(h, a.cost.word_reads);
  }
  h = Fnv1a64Word(h, verified ? 1 : 0);
  h = Fnv1a64Word(h, static_cast<uint64_t>(final_policy));
  h = Fnv1a64Word(h, std::bit_cast<uint64_t>(final_t));
  return h;
}

StatusOr<ResilienceReport> SortResilient(
    ApproxSortEngine& engine, const std::vector<uint32_t>& keys,
    const sort::AlgorithmId& algorithm, double t,
    const ResilienceOptions& options, std::vector<uint32_t>* final_keys,
    std::vector<uint32_t>* final_ids) {
  approx::ApproxMemory& memory = engine.memory();
  const Status valid = engine.ValidateKnob(t, keys.size());
  if (!valid.ok()) return valid;
  // All canary traffic spent during this call (baseline and attempts alike)
  // is charged to the cumulative ledger at the end.
  const approx::MemoryStats canary_before =
      memory.health().stats().canary_costs;

  ResilienceReport report;
  report.n = keys.size();

  // The precise baseline: Equation 2's denominator, same seed as
  // SortApproxRefine so the two outcomes are directly comparable.
  {
    StatusOr<refine::PreciseBaselineReport> baseline = engine.PreciseBaseline(
        keys, algorithm, engine.SortSeed(), /*with_ids=*/true);
    if (!baseline.ok()) return baseline.status();
    report.baseline = std::move(baseline.value());
  }

  // Each full attempt after the first draws its pivot seed from a split of
  // the ladder RNG — deterministic, replayable, independent streams.
  Rng ladder_rng(engine.options().seed ^ 0x7e511e47ULL);
  const double precise_t = memory.backend().precise_knob();
  const double min_knob = std::isnan(options.min_t)
                              ? memory.backend().min_knob()
                              : options.min_t;

  bool succeeded = false;
  std::vector<uint32_t> out_keys;
  std::vector<uint32_t> out_ids;

  const auto log_failure = [&options](const AttemptRecord& rec) {
    if (!options.log_diagnostics) return;
    std::fprintf(stderr, "[resilience] %s t=%.4f failed: %s\n",
                 AttemptPolicyName(rec.policy).data(), rec.t,
                 rec.status.ok() ? rec.verification.ToString().c_str()
                                 : rec.status.message().c_str());
  };

  // Runs one full attempt (approx stage + refine, with up to
  // max_refine_retries refine-only re-runs). Returns Ok when it verified;
  // a retryable failure lets the ladder climb, anything else aborts.
  const auto full_attempt = [&](AttemptPolicy policy, double attempt_t,
                                uint64_t sort_seed,
                                bool precise_domain) -> Status {
    const uint64_t quarantined_before =
        memory.health().stats().regions_quarantined;
    refine::RefineOptions ro =
        engine.RefineOptionsFor(algorithm, attempt_t, sort_seed);
    if (precise_domain) ro.approx_alloc = ro.precise_alloc;

    refine::ApproxStageState state;
    Status status = refine::RunApproxStage(keys, ro, &state);
    if (!status.ok()) {
      AttemptRecord rec;
      rec.policy = policy;
      rec.t = attempt_t;
      rec.status = status;
      rec.cost = state.report.TotalStats();
      report.cumulative += rec.cost;
      report.attempts.push_back(rec);
      log_failure(report.attempts.back());
      return status;
    }
    for (int run = 0;; ++run) {
      refine::RefineReport rep;
      std::vector<uint32_t> fk;
      std::vector<uint32_t> fi;
      status = refine::RunRefineStage(state, ro, &rep, &fk, &fi);
      AttemptRecord rec;
      rec.policy = run == 0 ? policy : AttemptPolicy::kRefineRetry;
      rec.t = attempt_t;
      rec.status = status;
      rec.verified = status.ok() && rep.verified();
      rec.verification = rep.verification;
      rec.rem_estimate = rep.rem_estimate;
      // A refine-only re-run pays just the refine stage again; the approx
      // stage it reuses was charged by run 0.
      rec.cost = run == 0 ? rep.TotalStats() : rep.refine_precise;
      report.cumulative += rec.cost;
      report.attempts.push_back(rec);
      report.refine = rep;
      report.final_policy = rec.policy;
      report.final_t = attempt_t;
      if (rec.verified) {
        succeeded = true;
        out_keys = std::move(fk);
        out_ids = std::move(fi);
        return Status::Ok();
      }
      log_failure(report.attempts.back());
      if (!status.ok() && !status.IsRetryable()) return status;
      // A quarantine during this attempt means persistent substrate damage
      // under the current placement; when configured, stop re-reading it
      // and let the ladder escalate to a fresh placement instead.
      const bool degraded_mid_attempt =
          options.skip_retry_on_quarantine &&
          memory.health().stats().regions_quarantined > quarantined_before;
      if (run >= options.max_refine_retries || degraded_mid_attempt) {
        // Exhausted this rung; report the unverified output so the caller
        // still has the best effort if the whole ladder runs dry.
        out_keys = std::move(fk);
        out_ids = std::move(fi);
        return status.ok() ? Status::Unavailable("verification failed")
                           : status;
      }
    }
  };

  Status last = full_attempt(AttemptPolicy::kInitial, t, engine.SortSeed(),
                             /*precise_domain=*/false);
  double current_t = t;
  int escalations = 0;
  bool fell_back = false;
  while (!succeeded) {
    if (!last.ok() && !last.IsRetryable()) return last;
    if (escalations < options.max_escalations) {
      ++escalations;
      current_t =
          std::max(min_knob, current_t * options.escalation_factor);
      last = full_attempt(AttemptPolicy::kGuardBandEscalation, current_t,
                          ladder_rng.Split().Next64(),
                          /*precise_domain=*/false);
    } else if (!fell_back) {
      fell_back = true;
      last = full_attempt(AttemptPolicy::kPreciseFallback, precise_t,
                          ladder_rng.Split().Next64(),
                          /*precise_domain=*/true);
    } else {
      break;  // Ladder exhausted: report honestly with verified == false.
    }
  }

  report.verified = succeeded;
  if (final_keys != nullptr) *final_keys = std::move(out_keys);
  if (final_ids != nullptr) *final_ids = std::move(out_ids);

  report.canary_costs =
      memory.health().stats().canary_costs - canary_before;
  report.health = memory.health().stats();
  report.cumulative += report.canary_costs;
  const double baseline_cost = report.baseline.TotalWriteCost();
  report.write_reduction =
      baseline_cost > 0.0
          ? 1.0 - report.cumulative.write_cost / baseline_cost
          : 0.0;
  return report;
}

}  // namespace approxmem::core
