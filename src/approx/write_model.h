// Abstraction over how a 32-bit word behaves when stored.
//
// A WriteModel decides (a) what value a write actually leaves in memory
// (error injection) and (b) what the write and read cost. Concrete models:
// precise PCM, approximate MLC PCM (fast calibrated path and exact
// Monte-Carlo path), and the Appendix-A spintronic bit-flip model.
#ifndef APPROXMEM_APPROX_WRITE_MODEL_H_
#define APPROXMEM_APPROX_WRITE_MODEL_H_

#include <cstddef>
#include <cstdint>
#include <string_view>

#include "common/random.h"

namespace approxmem::approx {

/// What one word write did.
struct WordWriteOutcome {
  /// The digital value subsequent reads will observe (sticky until the next
  /// write of the same word).
  uint32_t stored = 0;
  /// Cost of this write in the model's unit (ns or energy units).
  double cost = 0.0;
  /// Total program-and-verify iterations spent across the word's cells
  /// (wear/endurance proxy for PCM models; 0 for non-P&V technologies).
  double pv_iterations = 0.0;
};

/// Interface implemented by each memory technology / precision domain.
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

  /// Cost of one word read in the model's unit.
  virtual double ReadCost() const = 0;

  /// Unit label for reports: "ns" or "energy".
  virtual std::string_view CostUnit() const = 0;

  /// True if writes never corrupt (precise domains). Every precise model's
  /// Write() stores exactly what it is given, at a cost and #P that do not
  /// depend on the value, and draws nothing from the Rng: arrays read that
  /// fixed outcome once, with one probe Write, and then store and charge
  /// precise words without calling Write(). Models never see addresses:
  /// address-dependent costs (the banked backend's Table 1 device) are
  /// charged by the array, which calls the device directly.
  virtual bool IsPrecise() const = 0;
};

}  // namespace approxmem::approx

#endif  // APPROXMEM_APPROX_WRITE_MODEL_H_
