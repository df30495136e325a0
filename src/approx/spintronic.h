// Appendix A: approximate spintronic memory model (Ranjan et al., DAC'15).
//
// Lowering the write voltage/current of a spintronic cell saves energy but
// raises the per-bit write-error probability. Reads are treated as precise
// (write energy dominates by an order of magnitude). The paper evaluates
// four operating points pairing per-write energy savings of 5/20/33/50%
// with per-bit error probabilities of 1e-7/1e-6/1e-5/1e-4.
#ifndef APPROXMEM_APPROX_SPINTRONIC_H_
#define APPROXMEM_APPROX_SPINTRONIC_H_

#include <array>
#include <cstdint>
#include <string>

#include "approx/write_model.h"
#include "common/status.h"

namespace approxmem::approx {

/// One operating point of the approximate spintronic memory.
struct SpintronicConfig {
  /// Probability that each of the 32 bits of a written word flips.
  double bit_error_prob = 1e-6;
  /// Fraction of the precise write energy *saved* per approximate write
  /// (0.20 means an approximate write costs 0.80 energy units).
  double energy_saving_per_write = 0.20;
  /// Energy of one precise word write, in arbitrary units.
  double precise_write_energy = 1.0;
  /// Energy of one word read (reads are precise and cheap).
  double read_energy = 0.05;

  double ApproxWriteEnergy() const {
    return precise_write_energy * (1.0 - energy_saving_per_write);
  }

  Status Validate() const;
};

/// The paper's four operating points, in increasing-saving order.
std::array<SpintronicConfig, 4> PaperSpintronicConfigs();

/// Human-readable label, e.g. "33%/1e-05".
std::string SpintronicLabel(const SpintronicConfig& config);

/// WriteModel injecting independent per-bit flips; cost unit is energy.
class SpintronicWriteModel final : public WriteModel {
 public:
  explicit SpintronicWriteModel(const SpintronicConfig& config);

  WordWriteOutcome Write(uint32_t intended, Rng& rng) override;
  /// Batched writes: the per-word error uniforms are drawn in blocks (one
  /// RNG refill per block, identical draw sequence to the scalar loop);
  /// corrupted words fall back to the per-bit conditional sampler.
  void WriteBatch(const uint32_t* intended, size_t count, Rng& rng,
                  WordWriteOutcome* outcomes) override;
  double ReadCost() const override { return config_.read_energy; }

  const SpintronicConfig& config() const { return config_; }

 private:
  /// Samples the stored value given that at least one of the 32 bits flips
  /// (the uniform that decided "this word errs" is already consumed).
  uint32_t SampleCorruptedStored(uint32_t intended, Rng& rng) const;

  SpintronicConfig config_;
  double word_error_prob_;  // 1 - (1-p)^32, precomputed.
};

}  // namespace approxmem::approx

#endif  // APPROXMEM_APPROX_SPINTRONIC_H_
