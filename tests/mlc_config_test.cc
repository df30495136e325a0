#include "mlc/mlc_config.h"

#include <limits>

#include <gtest/gtest.h>

namespace approxmem::mlc {
namespace {

TEST(MlcConfigTest, PaperDefaultsValidate) {
  MlcConfig config;
  EXPECT_TRUE(config.Validate().ok());
  EXPECT_EQ(config.levels, 4);
  EXPECT_EQ(config.BitsPerCell(), 2);
  EXPECT_EQ(config.CellsPerWord(), 16);
}

TEST(MlcConfigTest, LevelCentersAreEquallySpaced) {
  MlcConfig config;
  EXPECT_DOUBLE_EQ(config.LevelCenter(0), 1.0 / 8.0);
  EXPECT_DOUBLE_EQ(config.LevelCenter(1), 3.0 / 8.0);
  EXPECT_DOUBLE_EQ(config.LevelCenter(2), 5.0 / 8.0);
  EXPECT_DOUBLE_EQ(config.LevelCenter(3), 7.0 / 8.0);
}

TEST(MlcConfigTest, QuantizeNearestLevelWithClamping) {
  MlcConfig config;
  EXPECT_EQ(config.Quantize(0.0), 0);
  EXPECT_EQ(config.Quantize(0.2), 0);
  EXPECT_EQ(config.Quantize(0.26), 1);
  EXPECT_EQ(config.Quantize(0.6), 2);
  EXPECT_EQ(config.Quantize(0.99), 3);
  EXPECT_EQ(config.Quantize(-0.5), 0);   // Below range clamps.
  EXPECT_EQ(config.Quantize(1.5), 3);    // Above range clamps.
}

TEST(MlcConfigTest, QuantizeRoundTripsLevelCenters) {
  for (int levels : {2, 4, 8, 16}) {
    MlcConfig config;
    config.levels = levels;
    for (int l = 0; l < levels; ++l) {
      EXPECT_EQ(config.Quantize(config.LevelCenter(l)), l)
          << "levels=" << levels << " l=" << l;
    }
  }
}

TEST(MlcConfigTest, BitsPerCellAcrossDensities) {
  MlcConfig config;
  config.levels = 2;
  EXPECT_EQ(config.BitsPerCell(), 1);
  EXPECT_EQ(config.CellsPerWord(), 32);
  config.levels = 16;
  EXPECT_EQ(config.BitsPerCell(), 4);
  EXPECT_EQ(config.CellsPerWord(), 8);
}

TEST(MlcConfigTest, DriftDecades) {
  MlcConfig config;
  config.elapsed_seconds = 1e5;  // Table 2.
  EXPECT_DOUBLE_EQ(config.DriftDecades(), 5.0);
}

TEST(MlcConfigTest, WithTOverridesOnlyT) {
  MlcConfig config;
  const MlcConfig other = config.WithT(0.1);
  EXPECT_DOUBLE_EQ(other.t_width, 0.1);
  EXPECT_DOUBLE_EQ(other.beta, config.beta);
  EXPECT_DOUBLE_EQ(config.t_width, 0.025);  // Original untouched.
}

TEST(MlcConfigTest, MaxTWidthExcludesOverlap) {
  EXPECT_DOUBLE_EQ(MaxTWidth(4), 0.125);
  EXPECT_DOUBLE_EQ(MaxTWidth(2), 0.25);
}

TEST(MlcConfigValidateTest, RejectsBadLevels) {
  MlcConfig config;
  config.levels = 3;  // Not a power of two.
  EXPECT_FALSE(config.Validate().ok());
  config.levels = 1;
  EXPECT_FALSE(config.Validate().ok());
}

TEST(MlcConfigValidateTest, RejectsTOutOfRange) {
  MlcConfig config;
  config.t_width = 0.125;  // == 1/(2L): target ranges touch.
  EXPECT_FALSE(config.Validate().ok());
  config.t_width = 0.0;
  EXPECT_FALSE(config.Validate().ok());
  config.t_width = -0.01;
  EXPECT_FALSE(config.Validate().ok());
  config.t_width = 0.124;
  EXPECT_TRUE(config.Validate().ok());
}

TEST(MlcConfigValidateTest, RejectsBadBetaAndLatencies) {
  MlcConfig config;
  config.beta = 0.0;
  EXPECT_FALSE(config.Validate().ok());
  config = MlcConfig();
  config.precise_write_latency_ns = 0.0;
  EXPECT_FALSE(config.Validate().ok());
  config = MlcConfig();
  config.max_pv_iterations = 0;
  EXPECT_FALSE(config.Validate().ok());
  config = MlcConfig();
  config.elapsed_seconds = 0.5;
  EXPECT_FALSE(config.Validate().ok());
}

TEST(MlcConfigValidateTest, RejectsNanParameters) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  for (double MlcConfig::*field :
       {&MlcConfig::t_width, &MlcConfig::precise_t_width, &MlcConfig::beta,
        &MlcConfig::drift_mu_per_decade, &MlcConfig::drift_sigma_per_decade,
        &MlcConfig::elapsed_seconds, &MlcConfig::precise_write_latency_ns,
        &MlcConfig::read_latency_ns}) {
    MlcConfig config;
    config.*field = nan;
    const Status status = config.Validate();
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument)
        << status.ToString();
  }
  EXPECT_FALSE(MlcConfig().WithT(nan).Validate().ok());
}

}  // namespace
}  // namespace approxmem::mlc
