#include "mlc/mlc_config.h"

#include <cmath>

namespace approxmem::mlc {

double MlcConfig::LevelCenter(int level) const {
  return (2.0 * level + 1.0) / (2.0 * levels);
}

int MlcConfig::Quantize(double analog) const {
  const int level = static_cast<int>(analog * levels);
  if (level < 0) return 0;
  if (level >= levels) return levels - 1;
  return level;
}

int MlcConfig::BitsPerCell() const {
  int bits = 0;
  for (int l = levels; l > 1; l >>= 1) ++bits;
  return bits;
}

int MlcConfig::CellsPerWord() const { return 32 / BitsPerCell(); }

double MlcConfig::DriftDecades() const { return std::log10(elapsed_seconds); }

MlcConfig MlcConfig::WithT(double t) const {
  MlcConfig copy = *this;
  copy.t_width = t;
  return copy;
}

Status MlcConfig::Validate() const {
  if (levels < 2 || (levels & (levels - 1)) != 0) {
    return Status::InvalidArgument("levels must be a power of two >= 2");
  }
  if (32 % BitsPerCell() != 0) {
    return Status::InvalidArgument("bits per cell must divide 32");
  }
  // Every range check below is written as !(in range) so a NaN fails it.
  if (!(t_width > 0.0 && t_width < MaxTWidth(levels))) {
    return Status::InvalidArgument("t_width must be in (0, 1/(2*levels))");
  }
  if (!(precise_t_width > 0.0 && precise_t_width < MaxTWidth(levels))) {
    return Status::InvalidArgument("precise_t_width out of range");
  }
  if (!(beta > 0.0 && beta < 1.0)) {
    return Status::InvalidArgument("beta must be in (0, 1)");
  }
  if (!(drift_sigma_per_decade >= 0.0 && drift_mu_per_decade >= 0.0)) {
    return Status::InvalidArgument("drift parameters must be non-negative");
  }
  if (!(elapsed_seconds >= 1.0)) {
    return Status::InvalidArgument("elapsed_seconds must be >= 1");
  }
  if (max_pv_iterations == 0) {
    return Status::InvalidArgument("max_pv_iterations must be positive");
  }
  if (!(precise_write_latency_ns > 0.0 && read_latency_ns > 0.0)) {
    return Status::InvalidArgument("latencies must be positive");
  }
  return Status::Ok();
}

double MaxTWidth(int levels) { return 1.0 / (2.0 * levels); }

}  // namespace approxmem::mlc
