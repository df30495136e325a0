// How a 32-bit word behaves when stored.
//
// The paper's hybrid memory has two domains. A precise write stores what it
// is given at one fixed cost, so the precise domain is a value: the backend's
// PreciseCosts. An approximate write may corrupt the stored value and costs
// what the technology's cell model says, so the approximate domain is a
// WriteModel. Concrete models: approximate MLC PCM (fast calibrated path and
// exact Monte-Carlo path) and the Appendix-A spintronic bit-flip model.
#ifndef APPROXMEM_APPROX_WRITE_MODEL_H_
#define APPROXMEM_APPROX_WRITE_MODEL_H_

#include <cstddef>
#include <cstdint>

#include "common/random.h"

namespace approxmem::approx {

/// What one word write did.
struct WordWriteOutcome {
  /// The digital value subsequent reads will observe (sticky until the next
  /// write of the same word).
  uint32_t stored = 0;
  /// Cost of this write in the technology's unit (ns or energy units).
  double cost = 0.0;
  /// Total program-and-verify iterations spent across the word's cells
  /// (wear/endurance proxy for PCM models; 0 for non-P&V technologies).
  double pv_iterations = 0.0;
};

/// The precise domain of one technology: every precise write stores exactly
/// what it is given, costs `write` and spends `pv` program-and-verify
/// iterations, whatever the value, and draws no randomness; every precise
/// read costs `read`. Costs are in the technology's unit.
struct PreciseCosts {
  double write = 0.0;
  double pv = 0.0;
  double read = 0.0;
};

/// One approximate operating point of a memory technology. Models never see
/// addresses: address-dependent costs (the banked backend's Table 1 device)
/// are charged by the array, which calls the device directly.
class WriteModel {
 public:
  virtual ~WriteModel() = default;

  /// Performs one word write of `intended`; may corrupt the stored value.
  virtual WordWriteOutcome Write(uint32_t intended, Rng& rng) = 0;

  /// Performs `count` word writes, filling `outcomes[0, count)`. The
  /// contract is bit-exactness: the outcomes and the final `rng` state are
  /// identical to calling Write() per word, in order, on the same stream.
  /// The default does exactly that; hot models override it with batched
  /// kernels (block uniform draws, table-driven cost sums) that preserve
  /// the per-word draw sequence.
  virtual void WriteBatch(const uint32_t* intended, size_t count, Rng& rng,
                          WordWriteOutcome* outcomes) {
    for (size_t i = 0; i < count; ++i) outcomes[i] = Write(intended[i], rng);
  }

  /// Cost of one word read in the technology's unit.
  virtual double ReadCost() const = 0;
};

}  // namespace approxmem::approx

#endif  // APPROXMEM_APPROX_WRITE_MODEL_H_
