#include "approx/spintronic.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace approxmem::approx {

Status SpintronicConfig::Validate() const {
  // Every range check below is written as !(in range) so a NaN fails it.
  if (!(bit_error_prob >= 0.0 && bit_error_prob < 1.0)) {
    return Status::InvalidArgument("bit_error_prob must be in [0, 1)");
  }
  if (!(energy_saving_per_write >= 0.0 && energy_saving_per_write < 1.0)) {
    return Status::InvalidArgument("energy_saving_per_write must be in [0,1)");
  }
  if (!(precise_write_energy > 0.0 && read_energy >= 0.0)) {
    return Status::InvalidArgument("energies must be positive");
  }
  return Status::Ok();
}

std::array<SpintronicConfig, 4> PaperSpintronicConfigs() {
  std::array<SpintronicConfig, 4> configs;
  const double savings[4] = {0.05, 0.20, 0.33, 0.50};
  const double errors[4] = {1e-7, 1e-6, 1e-5, 1e-4};
  for (int i = 0; i < 4; ++i) {
    configs[static_cast<size_t>(i)].energy_saving_per_write = savings[i];
    configs[static_cast<size_t>(i)].bit_error_prob = errors[i];
  }
  return configs;
}

std::string SpintronicLabel(const SpintronicConfig& config) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.0f%%/%.0e",
                config.energy_saving_per_write * 100.0,
                config.bit_error_prob);
  return buf;
}

SpintronicWriteModel::SpintronicWriteModel(const SpintronicConfig& config)
    : config_(config),
      word_error_prob_(1.0 - std::pow(1.0 - config.bit_error_prob, 32)) {}

WordWriteOutcome SpintronicWriteModel::Write(uint32_t intended, Rng& rng) {
  WordWriteOutcome outcome;
  outcome.cost = config_.ApproxWriteEnergy();
  outcome.stored = intended;
  if (word_error_prob_ <= 0.0 ||
      rng.UniformDouble() >= word_error_prob_) {
    return outcome;
  }
  outcome.stored = SampleCorruptedStored(intended, rng);
  return outcome;
}

uint32_t SpintronicWriteModel::SampleCorruptedStored(uint32_t intended,
                                                     Rng& rng) const {
  // At least one of the 32 bits flips. Sequential conditional Bernoulli:
  // bit i flips with probability p / (1 - (1-p)^(32-i)) while no bit has
  // flipped yet; once one flips, the remaining bits flip with plain p.
  uint32_t stored = intended;
  const double p = config_.bit_error_prob;
  bool flipped = false;
  double no_flip_suffix = 1.0 - word_error_prob_;  // (1-p)^32.
  for (int bit = 0; bit < 32; ++bit) {
    double flip_prob = p;
    if (!flipped) {
      // Probability that *this* bit is the first flip, conditioned on at
      // least one flip among bits [bit, 32).
      const double at_least_one = 1.0 - no_flip_suffix;
      flip_prob = at_least_one > 0.0 ? p / at_least_one : 1.0;
      no_flip_suffix /= (1.0 - p);  // (1-p)^(32-bit-1) for the next round.
    }
    if (rng.UniformDouble() < flip_prob) {
      stored ^= (1u << bit);
      flipped = true;
    }
  }
  if (!flipped) {
    // Numerical corner: force one flip so the conditioning holds exactly.
    stored ^= (1u << rng.UniformInt(32));
  }
  return stored;
}

void SpintronicWriteModel::WriteBatch(const uint32_t* intended, size_t count,
                                      Rng& rng, WordWriteOutcome* outcomes) {
  const double cost = config_.ApproxWriteEnergy();
  for (size_t w = 0; w < count; ++w) {
    outcomes[w] = WordWriteOutcome{intended[w], cost, 0.0};
  }
  if (word_error_prob_ <= 0.0) return;
  // Constant per-word error probability: block-draw one uniform per word
  // and scan for the first hit; rewinding to a pre-block snapshot keeps the
  // consumed draw sequence identical to the scalar loop.
  constexpr size_t kBlock = 64;
  double uniforms[kBlock];
  size_t w = 0;
  while (w < count) {
    const size_t block = std::min(count - w, kBlock);
    const Rng snapshot = rng;
    rng.FillUniformDoubles(uniforms, block);
    size_t hit = block;
    for (size_t k = 0; k < block; ++k) {
      if (uniforms[k] < word_error_prob_) {
        hit = k;
        break;
      }
    }
    if (hit == block) {
      w += block;
      continue;
    }
    rng = snapshot;
    for (size_t r = 0; r <= hit; ++r) rng.UniformDouble();
    outcomes[w + hit].stored = SampleCorruptedStored(intended[w + hit], rng);
    w += hit + 1;
  }
}

}  // namespace approxmem::approx
