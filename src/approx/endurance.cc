#include "approx/endurance.h"

#include <string_view>

#include "common/check.h"
#include "common/hash.h"

namespace approxmem::approx {

std::string_view BankStateName(BankState state) {
  switch (state) {
    case BankState::kActive:
      return "ACTIVE";
    case BankState::kAged:
      return "AGED";
    case BankState::kRetired:
      return "RETIRED";
  }
  return "UNKNOWN";
}

std::string_view RetirementReasonName(RetirementReason reason) {
  switch (reason) {
    case RetirementReason::kBudgetExhausted:
      return "BUDGET_EXHAUSTED";
    case RetirementReason::kCanaryCondemned:
      return "CANARY_CONDEMNED";
  }
  return "UNKNOWN";
}

EnduranceLedger::EnduranceLedger(const EnduranceOptions& options)
    : options_(options) {
  APPROXMEM_CHECK(options_.banks > 0);
  APPROXMEM_CHECK(options_.bank_budget_pv > 0.0);
  APPROXMEM_CHECK(options_.age_multiplier > 0.0);
  for (size_t i = 1; i < options_.escalation.size(); ++i) {
    APPROXMEM_CHECK(options_.escalation[i - 1].wear_fraction <=
                    options_.escalation[i].wear_fraction);
  }
  banks_.resize(static_cast<size_t>(options_.banks));
  live_banks_ = options_.banks;
}

bool EnduranceLedger::ChargeBank(int bank, double pv) {
  APPROXMEM_CHECK(bank >= 0 && bank < total_banks());
  if (pv <= 0.0) return false;
  BankEndurance& state = banks_[static_cast<size_t>(bank)];
  if (state.state == BankState::kRetired) return false;
  state.consumed_pv += pv * options_.age_multiplier;
  const double fraction = state.consumed_pv / options_.bank_budget_pv;
  if (fraction >= 1.0) {
    Retire(bank, RetirementReason::kBudgetExhausted);
    return true;
  }
  int level = 0;
  for (const EscalationStep& step : options_.escalation) {
    if (fraction >= step.wear_fraction) ++level;
  }
  state.escalation_level = level;
  if (level > 0) state.state = BankState::kAged;
  return false;
}

bool EnduranceLedger::RecordQuarantine(int bank) {
  APPROXMEM_CHECK(bank >= 0 && bank < total_banks());
  BankEndurance& state = banks_[static_cast<size_t>(bank)];
  if (state.state == BankState::kRetired) return false;
  ++state.quarantines;
  if (options_.retire_after_quarantines > 0 &&
      state.quarantines >= options_.retire_after_quarantines) {
    Retire(bank, RetirementReason::kCanaryCondemned);
    return true;
  }
  return false;
}

void EnduranceLedger::Retire(int bank, RetirementReason reason) {
  BankEndurance& state = banks_[static_cast<size_t>(bank)];
  state.state = BankState::kRetired;
  state.escalation_level = static_cast<int>(options_.escalation.size());
  --live_banks_;
  RetirementEvent event;
  event.bank = bank;
  event.reason = reason;
  event.virtual_time = virtual_time_;
  event.consumed_pv = state.consumed_pv;
  event.quarantines = state.quarantines;
  retirements_.push_back(event);
}

double EnduranceLedger::ExtraWordErrorRate(int bank) const {
  APPROXMEM_CHECK(bank >= 0 && bank < total_banks());
  const BankEndurance& state = banks_[static_cast<size_t>(bank)];
  if (state.escalation_level <= 0) return 0.0;
  const size_t step = static_cast<size_t>(state.escalation_level) - 1;
  return options_.escalation[step].word_error_rate;
}

int EnduranceLedger::MaxLiveEscalationLevel() const {
  int level = 0;
  for (const BankEndurance& bank : banks_) {
    if (bank.state == BankState::kRetired) continue;
    if (bank.escalation_level > level) level = bank.escalation_level;
  }
  return level;
}

double EnduranceLedger::WearFraction(int bank) const {
  APPROXMEM_CHECK(bank >= 0 && bank < total_banks());
  return banks_[static_cast<size_t>(bank)].consumed_pv /
         options_.bank_budget_pv;
}

uint64_t EnduranceLedger::TimelineDigest() const {
  uint64_t h = kFnv1a64Offset;
  h = Fnv1a64Word(h, retirements_.size());
  for (const RetirementEvent& event : retirements_) {
    h = Fnv1a64Word(h, static_cast<uint64_t>(event.bank));
    h = Fnv1a64Word(h, static_cast<uint64_t>(event.reason));
    h = Fnv1a64Word(h, event.virtual_time);
    // Wear is charged in a fixed serial order, so the double is bit-stable.
    uint64_t bits;
    static_assert(sizeof(bits) == sizeof(event.consumed_pv));
    __builtin_memcpy(&bits, &event.consumed_pv, sizeof(bits));
    h = Fnv1a64Word(h, bits);
    h = Fnv1a64Word(h, event.quarantines);
  }
  return h;
}

WearErrorHook::WearErrorHook(const EnduranceLedger* ledger,
                             MemoryFaultHook* inner)
    : ledger_(ledger), inner_(inner) {
  APPROXMEM_CHECK(ledger_ != nullptr);
}

void WearErrorHook::BeginJob(uint64_t ticket) {
  job_key_ =
      Mix64((ticket ^ ledger_->options().seed) + kSplitMix64Gamma);
  draw_counter_ = 0;
}

uint32_t WearErrorHook::OnWrite(uint64_t address, bool precise_domain,
                                uint32_t intended, uint32_t stored) {
  if (inner_ != nullptr) {
    stored = inner_->OnWrite(address, precise_domain, intended, stored);
  }
  // Precise-domain writes never age-corrupt (see header): wear kills banks
  // through retirement, not through silent precise errors.
  if (precise_domain) return stored;
  const uint64_t lane = address / ledger_->options().bank_lane_bytes;
  if (lane >= static_cast<uint64_t>(ledger_->total_banks())) return stored;
  const double rate = ledger_->ExtraWordErrorRate(static_cast<int>(lane));
  if (rate <= 0.0) return stored;
  const uint64_t bits =
      Mix64((job_key_ ^ draw_counter_++) + kSplitMix64Gamma);
  // Top 53 bits -> uniform double in [0, 1); low 5 bits pick the flipped
  // bit position when the draw lands under the escalated rate.
  const double draw =
      static_cast<double>(bits >> 11) * (1.0 / 9007199254740992.0);
  if (draw >= rate) return stored;
  ++injected_errors_;
  return stored ^ (1u << (bits & 31u));
}

uint32_t WearErrorHook::OnRead(uint64_t address, bool precise_domain,
                               uint32_t value) {
  if (inner_ != nullptr) {
    value = inner_->OnRead(address, precise_domain, value);
  }
  return value;
}

}  // namespace approxmem::approx
