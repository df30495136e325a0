#include "approx/spintronic.h"

#include <bit>
#include <limits>

#include <gtest/gtest.h>

#include "approx/approx_memory.h"

namespace approxmem::approx {
namespace {

TEST(SpintronicConfigTest, PaperOperatingPoints) {
  const auto configs = PaperSpintronicConfigs();
  EXPECT_DOUBLE_EQ(configs[0].energy_saving_per_write, 0.05);
  EXPECT_DOUBLE_EQ(configs[0].bit_error_prob, 1e-7);
  EXPECT_DOUBLE_EQ(configs[3].energy_saving_per_write, 0.50);
  EXPECT_DOUBLE_EQ(configs[3].bit_error_prob, 1e-4);
  for (const auto& config : configs) {
    EXPECT_TRUE(config.Validate().ok());
  }
}

TEST(SpintronicConfigTest, ApproxWriteEnergy) {
  SpintronicConfig config;
  config.energy_saving_per_write = 0.33;
  EXPECT_DOUBLE_EQ(config.ApproxWriteEnergy(), 0.67);
}

TEST(SpintronicConfigTest, Validation) {
  SpintronicConfig config;
  config.bit_error_prob = 1.0;
  EXPECT_FALSE(config.Validate().ok());
  config = SpintronicConfig();
  config.energy_saving_per_write = 1.0;
  EXPECT_FALSE(config.Validate().ok());
  config = SpintronicConfig();
  config.precise_write_energy = 0.0;
  EXPECT_FALSE(config.Validate().ok());
}

TEST(SpintronicConfigTest, ValidationRejectsNan) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  for (double SpintronicConfig::*field :
       {&SpintronicConfig::bit_error_prob,
        &SpintronicConfig::energy_saving_per_write,
        &SpintronicConfig::precise_write_energy,
        &SpintronicConfig::read_energy}) {
    SpintronicConfig config;
    config.*field = nan;
    const Status status = config.Validate();
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument)
        << status.ToString();
  }
}

TEST(SpintronicConfigTest, Label) {
  SpintronicConfig config;
  config.energy_saving_per_write = 0.33;
  config.bit_error_prob = 1e-5;
  EXPECT_EQ(SpintronicLabel(config), "33%/1e-05");
}

TEST(SpintronicWriteModelTest, ErrorFreeWhenProbabilityZero) {
  SpintronicConfig config;
  config.bit_error_prob = 0.0;
  SpintronicWriteModel model(config);
  Rng rng(1);
  for (int i = 0; i < 1000; ++i) {
    const uint32_t v = rng.NextU32();
    EXPECT_EQ(model.Write(v, rng).stored, v);
  }
}

TEST(SpintronicWriteModelTest, BitFlipRateMatchesConfig) {
  SpintronicConfig config;
  config.bit_error_prob = 1e-3;  // Exaggerated so the test converges fast.
  SpintronicWriteModel model(config);
  Rng rng(2);
  uint64_t flipped_bits = 0;
  const int kTrials = 200000;
  for (int i = 0; i < kTrials; ++i) {
    const uint32_t v = rng.NextU32();
    flipped_bits += std::popcount(model.Write(v, rng).stored ^ v);
  }
  const double measured =
      static_cast<double>(flipped_bits) / (32.0 * kTrials);
  EXPECT_NEAR(measured, 1e-3, 1e-4);
}

TEST(SpintronicWriteModelTest, EnergyFollowsSavingFraction) {
  SpintronicConfig config;
  config.energy_saving_per_write = 0.20;
  SpintronicWriteModel model(config);
  Rng rng(3);
  EXPECT_DOUBLE_EQ(model.Write(42, rng).cost, 0.80);
}

// The spintronic precise domain: unit write energy, no #P, the paper's read
// energy, and every precise word stored exactly without a draw.
TEST(SpintronicWriteModelTest, PreciseBaselineUnitEnergyNoErrors) {
  ApproxMemory::Options options;
  options.backend = std::string(kSpintronicBackendName);
  options.calibration_trials = 2000;  // PCM calibration unused here.
  ApproxMemory memory(options);
  EXPECT_EQ(memory.backend().cost_unit(), "energy");
  const PreciseCosts costs = memory.backend().precise_costs();
  EXPECT_DOUBLE_EQ(costs.write, 1.0);
  EXPECT_DOUBLE_EQ(costs.pv, 0.0);
  EXPECT_DOUBLE_EQ(costs.read, SpintronicConfig{}.read_energy);
  ApproxArrayU32 array = memory.NewPreciseArray(1);
  const Rng before = array.rng();
  array.Set(0, 0xABCD);
  EXPECT_EQ(array.Get(0), 0xABCDu);
  EXPECT_DOUBLE_EQ(array.stats().write_cost, 1.0);
  EXPECT_DOUBLE_EQ(array.stats().pv_iterations, 0.0);
  EXPECT_EQ(array.ErrorRate(), 0.0);
  EXPECT_TRUE(array.rng() == before);
}

TEST(SpintronicArrayTest, HighErrorPointCorruptsSomeWrites) {
  ApproxMemory::Options options;
  options.backend = std::string(kSpintronicBackendName);
  options.calibration_trials = 2000;  // PCM calibration unused here.
  ApproxMemory memory(options);
  SpintronicConfig config = PaperSpintronicConfigs()[3];  // 1e-4 per bit.
  ApproxArrayU32 array = memory.NewApproxArray(100000, config.bit_error_prob);
  Rng rng(5);
  for (size_t i = 0; i < array.size(); ++i) array.Set(i, rng.NextU32());
  // Per-word error ~ 1-(1-1e-4)^32 ~ 0.32%.
  EXPECT_NEAR(array.ErrorRate(), 0.0032, 0.001);
  EXPECT_DOUBLE_EQ(array.stats().write_cost, 0.5 * 100000);
}

}  // namespace
}  // namespace approxmem::approx
