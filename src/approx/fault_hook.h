// Deterministic fault-injection hook for the instrumented arrays.
//
// A MemoryFaultHook observes every word access an ApproxArrayU32 performs
// and may alter the value the memory ends up holding (writes) or the value
// the program observes (reads). It is how the correctness-tooling layer
// (src/testing) injects stuck-at cells, drift bursts, transient read flips,
// and region-scoped error-rate overrides underneath unmodified workloads.
//
// The hook sits *below* the WriteModel: the model first decides what the
// technology stores, then the hook gets a chance to corrupt it further.
// Hooks must be deterministic functions of their own seed and the access
// sequence so that every failure is replayable from one uint64 seed.
#ifndef APPROXMEM_APPROX_FAULT_HOOK_H_
#define APPROXMEM_APPROX_FAULT_HOOK_H_

#include <cstdint>

namespace approxmem::approx {

/// Observes and perturbs word accesses of instrumented arrays.
///
/// `address` is the byte address of the word in the flat simulated space
/// (the same address the banked backend charges the access at), so faults
/// can be scoped to address regions. `precise_domain` reports whether the
/// array lives in a precise allocation — faults injected there break the
/// paper's refine guarantee and must be caught by the differential oracle.
class MemoryFaultHook {
 public:
  virtual ~MemoryFaultHook() = default;

  /// Called after the WriteModel stored a word. `stored` is the value the
  /// technology left in memory (possibly already corrupted by the model);
  /// the return value is what the memory actually holds from now on.
  virtual uint32_t OnWrite(uint64_t address, bool precise_domain,
                           uint32_t intended, uint32_t stored) = 0;

  /// Called on every read with the value held in memory; the return value
  /// is what the program observes. Changes are transient: the stored value
  /// is not modified.
  virtual uint32_t OnRead(uint64_t address, bool precise_domain,
                          uint32_t value) = 0;
};

}  // namespace approxmem::approx

#endif  // APPROXMEM_APPROX_FAULT_HOOK_H_
