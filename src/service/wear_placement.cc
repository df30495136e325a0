#include "service/wear_placement.h"

#include "common/check.h"

namespace approxmem::service {

WearPlacement::WearPlacement(const WearLevelOptions& options,
                             approx::EnduranceLedger* endurance)
    : options_(options), endurance_(endurance) {
  APPROXMEM_CHECK(options_.banks > 0);
  if (endurance_ != nullptr) {
    APPROXMEM_CHECK(endurance_->total_banks() == options_.banks);
  }
  banks_.resize(static_cast<size_t>(options_.banks));
}

uint64_t WearPlacement::PlaceSpan(uint64_t span) {
  // Least-worn live bank wins; ties fall to fewest bytes placed, then
  // lowest index — with no wear reports yet this degrades to byte-balanced
  // rotation, which is exactly the cold-start behaviour we want. Banks the
  // endurance ledger retired are excluded outright.
  int best = -1;
  for (int b = 0; b < options_.banks; ++b) {
    if (endurance_ != nullptr && endurance_->IsRetired(b)) continue;
    if (best < 0) {
      best = b;
      continue;
    }
    const BankWear& cand = banks_[static_cast<size_t>(b)];
    const BankWear& incumbent = banks_[static_cast<size_t>(best)];
    if (cand.wear < incumbent.wear ||
        (cand.wear == incumbent.wear &&
         cand.bytes_placed < incumbent.bytes_placed)) {
      best = b;
    }
  }
  if (best < 0) {
    // Every bank is retired. The policy contract demands progress (a job
    // already mid-flight may still allocate — e.g. a precise fallback
    // attempt), so fall back to the least-worn retired bank; admission
    // control is responsible for not sending new work to an exhausted
    // substrate.
    best = 0;
    for (int b = 1; b < options_.banks; ++b) {
      if (banks_[static_cast<size_t>(b)].wear <
          banks_[static_cast<size_t>(best)].wear) {
        best = b;
      }
    }
  }
  BankWear& bank = banks_[static_cast<size_t>(best)];
  APPROXMEM_CHECK(bank.cursor + span <= kBankLaneBytes);
  const uint64_t base =
      static_cast<uint64_t>(best) * kBankLaneBytes + bank.cursor;
  bank.cursor += span;
  bank.bytes_placed += span;
  ++bank.allocations;
  current_job_spans_.emplace_back(best, span);
  return base;
}

void WearPlacement::OnQuarantine(uint64_t base, uint64_t span) {
  const int b = BankOf(base);
  BankWear& bank = banks_[static_cast<size_t>(b)];
  ++bank.quarantined_regions;
  bank.wear += kQuarantineWearPenalty;
  ++quarantine_events_;
  if (endurance_ != nullptr) endurance_->RecordQuarantine(b);
  // The quarantined span was already consumed by PlaceSpan, so the lane
  // cursor has moved past it; nothing to rewind. Drop the span from the
  // current job's attribution targets — its canaries failed, the job's
  // data never lived there.
  if (!current_job_spans_.empty() &&
      current_job_spans_.back() == std::make_pair(b, span)) {
    current_job_spans_.pop_back();
  }
}

void WearPlacement::BeginJob() {
  current_job_spans_.clear();
  if (endurance_ != nullptr) endurance_->BeginJob();
}

void WearPlacement::ChargeJobCost(double pv_iterations) {
  if (pv_iterations <= 0.0) return;
  if (current_job_spans_.empty()) {
    // The job placed nothing (or every span was quarantined away); there
    // is no bank to attribute to, but the wear was real — keep it on an
    // explicit side ledger instead of dropping it.
    unattributed_wear_ += pv_iterations;
    return;
  }
  uint64_t total_bytes = 0;
  for (const auto& [bank, bytes] : current_job_spans_) total_bytes += bytes;
  const size_t spans = current_job_spans_.size();
  for (const auto& [bank, bytes] : current_job_spans_) {
    // Proportional to bytes placed; a job of only zero-byte spans splits
    // the charge equally (never a division by zero, never a drop).
    const double share =
        total_bytes > 0
            ? pv_iterations * (static_cast<double>(bytes) /
                               static_cast<double>(total_bytes))
            : pv_iterations / static_cast<double>(spans);
    banks_[static_cast<size_t>(bank)].wear += share;
    if (endurance_ != nullptr) endurance_->ChargeBank(bank, share);
  }
}

int WearPlacement::BankOf(uint64_t address) const {
  const uint64_t b = address / kBankLaneBytes;
  APPROXMEM_CHECK(b < banks_.size());
  return static_cast<int>(b);
}

int WearPlacement::LiveBankCount() const {
  return endurance_ != nullptr ? endurance_->live_banks() : options_.banks;
}

double WearPlacement::WearImbalance() const {
  double max_wear = 0.0;
  double total = 0.0;
  int used = 0;
  for (const BankWear& bank : banks_) {
    if (bank.allocations == 0 && bank.wear == 0.0) continue;
    ++used;
    total += bank.wear;
    if (bank.wear > max_wear) max_wear = bank.wear;
  }
  if (used == 0 || total <= 0.0) return 1.0;
  const double mean = total / used;
  return mean > 0.0 ? max_wear / mean : 1.0;
}

}  // namespace approxmem::service
