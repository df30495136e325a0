// Unit tests for the device-lifetime endurance subsystem
// (approx/endurance.h): the ledger's wear -> escalation -> retirement
// state machine, the timeline digest's replay contract, and the
// WearErrorHook's deterministic counter-based draws.
#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "approx/endurance.h"

namespace approxmem::approx {
namespace {

EnduranceOptions SmallOptions() {
  EnduranceOptions options;
  options.enabled = true;
  options.banks = 4;
  options.bank_budget_pv = 1000.0;
  options.escalation = {{0.50, 0.01}, {0.75, 0.05}, {0.90, 0.25}};
  options.retire_after_quarantines = 3;
  return options;
}

TEST(EnduranceLedgerTest, EscalationIsAPureFunctionOfChargedWear) {
  EnduranceLedger ledger(SmallOptions());
  EXPECT_EQ(ledger.bank(0).state, BankState::kActive);
  EXPECT_DOUBLE_EQ(ledger.ExtraWordErrorRate(0), 0.0);

  EXPECT_FALSE(ledger.ChargeBank(0, 400.0));  // 40%: below every step.
  EXPECT_EQ(ledger.bank(0).escalation_level, 0);
  EXPECT_DOUBLE_EQ(ledger.ExtraWordErrorRate(0), 0.0);

  EXPECT_FALSE(ledger.ChargeBank(0, 200.0));  // 60%: first step crossed.
  EXPECT_EQ(ledger.bank(0).state, BankState::kAged);
  EXPECT_EQ(ledger.bank(0).escalation_level, 1);
  EXPECT_DOUBLE_EQ(ledger.ExtraWordErrorRate(0), 0.01);

  EXPECT_FALSE(ledger.ChargeBank(0, 320.0));  // 92%: all three steps.
  EXPECT_EQ(ledger.bank(0).escalation_level, 3);
  EXPECT_DOUBLE_EQ(ledger.ExtraWordErrorRate(0), 0.25);

  // Other banks never moved: wear is charged per bank, not per substrate.
  EXPECT_EQ(ledger.bank(1).escalation_level, 0);
}

TEST(EnduranceLedgerTest, BudgetExhaustionRetiresAndShrinksCapacity) {
  EnduranceLedger ledger(SmallOptions());
  ledger.BeginJob();
  ledger.BeginJob();
  EXPECT_TRUE(ledger.ChargeBank(2, 1200.0));
  EXPECT_TRUE(ledger.IsRetired(2));
  EXPECT_EQ(ledger.live_banks(), 3);
  EXPECT_DOUBLE_EQ(ledger.CapacityFraction(), 0.75);
  EXPECT_EQ(ledger.wear_epoch(), 1u);

  ASSERT_EQ(ledger.retirements().size(), 1u);
  const RetirementEvent& event = ledger.retirements()[0];
  EXPECT_EQ(event.bank, 2);
  EXPECT_EQ(event.reason, RetirementReason::kBudgetExhausted);
  EXPECT_EQ(event.virtual_time, 2u);  // Stamped with jobs begun, not clock.
  EXPECT_DOUBLE_EQ(event.consumed_pv, 1200.0);

  // Retired banks ignore further charges and quarantines.
  EXPECT_FALSE(ledger.ChargeBank(2, 500.0));
  EXPECT_FALSE(ledger.RecordQuarantine(2));
  EXPECT_EQ(ledger.retirements().size(), 1u);
}

TEST(EnduranceLedgerTest, RepeatedQuarantinesCondemnABank) {
  EnduranceLedger ledger(SmallOptions());
  EXPECT_FALSE(ledger.RecordQuarantine(1));
  EXPECT_FALSE(ledger.RecordQuarantine(1));
  EXPECT_TRUE(ledger.RecordQuarantine(1));
  EXPECT_TRUE(ledger.IsRetired(1));
  ASSERT_EQ(ledger.retirements().size(), 1u);
  EXPECT_EQ(ledger.retirements()[0].reason,
            RetirementReason::kCanaryCondemned);
  EXPECT_EQ(ledger.retirements()[0].quarantines, 3u);
}

TEST(EnduranceLedgerTest, AgeMultiplierCompressesVirtualLifetime) {
  EnduranceOptions fast = SmallOptions();
  fast.age_multiplier = 10.0;
  EnduranceLedger ledger(fast);
  // 120 observed pv * 10x aging = 1200 consumed: past the whole budget.
  EXPECT_TRUE(ledger.ChargeBank(0, 120.0));
  EXPECT_TRUE(ledger.IsRetired(0));
}

TEST(EnduranceLedgerTest, TimelineDigestReplaysAndDiscriminates) {
  const auto run = [](double second_charge) {
    EnduranceLedger ledger(SmallOptions());
    ledger.BeginJob();
    ledger.ChargeBank(0, 1100.0);
    ledger.BeginJob();
    ledger.ChargeBank(1, second_charge);
    return ledger.TimelineDigest();
  };
  EXPECT_EQ(run(1100.0), run(1100.0));  // Same wear sequence, same digest.
  EXPECT_NE(run(1100.0), run(1300.0));  // Different wear at retirement.
  EXPECT_NE(run(1100.0), run(500.0));   // Different retirement count.
}

TEST(EnduranceLedgerTest, MaxLiveEscalationIgnoresRetiredBanks) {
  EnduranceLedger ledger(SmallOptions());
  ledger.ChargeBank(0, 950.0);  // 95%: level 3, the most-aged live bank.
  ledger.ChargeBank(1, 600.0);  // 60%: level 1.
  EXPECT_EQ(ledger.MaxLiveEscalationLevel(), 3);
  ledger.ChargeBank(0, 100.0);  // Retires bank 0.
  EXPECT_TRUE(ledger.IsRetired(0));
  EXPECT_EQ(ledger.MaxLiveEscalationLevel(), 1);
}

// ---- WearErrorHook ---------------------------------------------------------

TEST(WearErrorHookTest, DrawsAreAPureFunctionOfTicketAndCounter) {
  EnduranceOptions options = SmallOptions();
  options.bank_lane_bytes = 1 << 20;
  EnduranceLedger ledger(options);
  ledger.ChargeBank(0, 950.0);  // Level 3: 25% extra error rate.

  const auto run = [&ledger](uint64_t ticket) {
    WearErrorHook hook(&ledger, nullptr);
    hook.BeginJob(ticket);
    std::vector<uint32_t> stored;
    for (uint64_t i = 0; i < 256; ++i) {
      stored.push_back(hook.OnWrite(i * 4, /*precise_domain=*/false,
                                    0xabcd0123u, 0xabcd0123u));
    }
    return stored;
  };
  EXPECT_EQ(run(7), run(7));  // Same ticket: bit-identical error pattern.
  EXPECT_NE(run(7), run(8));  // Stream is keyed by the ticket.

  WearErrorHook hook(&ledger, nullptr);
  hook.BeginJob(7);
  for (uint64_t i = 0; i < 256; ++i) {
    hook.OnWrite(i * 4, false, 0xabcd0123u, 0xabcd0123u);
  }
  // A 25% rate over 256 draws flips something, deterministically.
  EXPECT_GT(hook.injected_errors(), 0u);
}

TEST(WearErrorHookTest, PreciseDomainAndHealthyBanksPassThrough) {
  EnduranceOptions options = SmallOptions();
  options.bank_lane_bytes = 1 << 20;
  EnduranceLedger ledger(options);
  ledger.ChargeBank(0, 950.0);  // Bank 0 heavily aged; bank 1 untouched.

  WearErrorHook hook(&ledger, nullptr);
  hook.BeginJob(3);
  for (uint64_t i = 0; i < 512; ++i) {
    // Aged bank, precise domain: aging never corrupts precise writes.
    EXPECT_EQ(hook.OnWrite(i * 4, /*precise_domain=*/true, 1u, 1u), 1u);
    // Healthy bank (lane 1), approx domain: below the first step, no draws.
    EXPECT_EQ(hook.OnWrite((1 << 20) + i * 4, false, 2u, 2u), 2u);
    // Reads are never age-corrupted (wear is a write phenomenon here).
    EXPECT_EQ(hook.OnRead(i * 4, false, 3u), 3u);
  }
  EXPECT_EQ(hook.injected_errors(), 0u);
}

}  // namespace
}  // namespace approxmem::approx
