// Instrumented 32-bit arrays living in a precision domain.
//
// ApproxArrayU32 is the analogue of the paper's `approx_alloc` interface:
// every Get/Set is one simulated memory access. The array holds the value
// the memory actually stores for each element and, when a store can differ
// from the value written (an approximate model or a fault hook), one flag
// per element saying whether its last write deviated, so that error rates
// ("proportion of elements whose values deviate from their original
// values") can be measured exactly.
#ifndef APPROXMEM_APPROX_APPROX_ARRAY_H_
#define APPROXMEM_APPROX_APPROX_ARRAY_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "approx/fault_hook.h"
#include "approx/memory_stats.h"
#include "approx/write_model.h"
#include "common/check.h"
#include "common/random.h"
#include "mem/memory_system.h"

namespace approxmem::approx {

/// A fixed-size array of 32-bit words stored through a WriteModel, or
/// precisely when the model is null.
///
/// The array does not own its WriteModel (ApproxMemory does); it owns its
/// own RNG stream so results do not depend on operation interleaving across
/// arrays. Move-only.
class ApproxArrayU32 {
 public:
  /// A null `model` makes a precise array: every write stores its value at
  /// the `precise` costs and draws nothing (with the default costs, a free
  /// placeholder). Element i lives at byte address `base_address` + 4i.
  /// `device`, when set (the banked backend's Table 1 memory system, shared
  /// by every array of one ApproxMemory), sees each access at that address
  /// and charges it: a read books the device's latency instead of the flat
  /// read cost, and a write books its outcome cost plus the stall its
  /// posting caused. `sequential_write_discount` scales the cost of a write
  /// that lands at (last written index + 1) — the sequential-vs-random PCM
  /// write asymmetry the paper's Section 5 discussion calls for (1.0
  /// disables it). `fault_hook`, when set, observes and may perturb every
  /// access at its address (see fault_hook.h); null means fault-free
  /// operation.
  ApproxArrayU32(size_t n, WriteModel* model, Rng rng,
                 uint64_t base_address = 0,
                 double sequential_write_discount = 1.0,
                 MemoryFaultHook* fault_hook = nullptr,
                 mem::MemorySystem* device = nullptr,
                 const PreciseCosts& precise = {});
  ~ApproxArrayU32();

  ApproxArrayU32(ApproxArrayU32&& other) noexcept;
  ApproxArrayU32& operator=(ApproxArrayU32&& other) noexcept;
  ApproxArrayU32(const ApproxArrayU32&) = delete;
  ApproxArrayU32& operator=(const ApproxArrayU32&) = delete;

  size_t size() const { return actual_.size(); }

  /// Reads element `i` (one simulated memory read). A fault hook may flip
  /// the observed value transiently (the stored value is untouched).
  uint32_t Get(size_t i) { return GetImpl(i, stats_); }

  /// Writes element `i` (one simulated memory write, possibly corrupted).
  void Set(size_t i, uint32_t value) {
    SetImpl(i, value, rng_, stats_, last_written_);
  }

  /// Writes values[0, count) to elements [start, start + count): one
  /// simulated write per element, driven through the model's WriteBatch
  /// kernel on an approximate array (bit-identical to the equivalent Set
  /// loop, including the sequential-write discount and the RNG draw
  /// sequence).
  void SetRange(size_t start, const uint32_t* values, size_t count) {
    SetRangeImpl(start, values, count, rng_, stats_, last_written_);
  }

  /// Reads elements [start, start + count) into out[0, count): one
  /// simulated read each, identical accounting to a Get loop.
  void GetRange(size_t start, uint32_t* out, size_t count) {
    GetRangeImpl(start, out, count, stats_);
  }

  /// Reads elements index[0, count) into out[0, count): bit-identical to
  /// the loop `out[k] = Get(index[k])` — values, ledger, and the order of
  /// fault-hook calls and device charges. An unobserved array gathers, then
  /// charges all `count` reads with one exact repeated add.
  void GetIndexed(const uint32_t* index, uint32_t* out, size_t count);

  /// Books `count` reads of an unobserved array without performing them:
  /// the ledger a Get loop of that length leaves, since every such read
  /// costs the same. For callers that already hold the values (read
  /// earlier, with nothing written since, or through PeekActual).
  void ChargeReads(size_t count);

  /// Most elements one Shard::ScatterPaired call takes.
  static constexpr size_t kScatterBlock = 64;

  /// A handle for driving a disjoint slice of this array's accesses with
  /// its own RNG substream, stats ledger, and sequential-write cursor.
  /// Created in batches by MakeShards (which fixes each shard's substream
  /// by split order); folded back by MergeShards. Shards of one array may
  /// run concurrently only when unobserved() holds and no index is
  /// touched by two shards; otherwise drive them serially in shard order —
  /// either way the results depend only on the shard plan, never on the
  /// thread count. Each shard sits on cache lines of its own: the shards
  /// of one plan live side by side in a vector, and every access updates
  /// the shard's ledger, so shards sharing a line would bounce it between
  /// the threads that drive them.
  class alignas(64) Shard {
   public:
    uint32_t Get(size_t i) { return array_->GetImpl(i, stats_); }
    void Set(size_t i, uint32_t value) {
      array_->SetImpl(i, value, rng_, stats_, last_written_);
    }
    void SetRange(size_t start, const uint32_t* values, size_t count) {
      array_->SetRangeImpl(start, values, count, rng_, stats_, last_written_);
    }
    void GetRange(size_t start, uint32_t* out, size_t count) {
      array_->GetRangeImpl(start, out, count, stats_);
    }
    /// Paired scattered write of at most kScatterBlock elements: writes
    /// key_values[k] to element dest[k] of this shard's array and, when
    /// `ids` is set, id_values[k] to element dest[k] of the ids shard's
    /// array. Bit-identical to the loop
    ///   for k: Set(dest[k], key_values[k]); ids->Set(dest[k], id_values[k]);
    /// — stored values, ledgers, RNG states, and the order of fault-hook
    /// calls and device charges — but each approximate array's model runs
    /// one WriteBatch over the block, and when neither array has a hook
    /// or a device each applies its side in a loop of its own.
    void ScatterPaired(const size_t* dest, const uint32_t* key_values,
                       Shard* ids, const uint32_t* id_values, size_t count);
    /// Paired block read, the twin of ScatterPaired: reads elements
    /// [start, start + count) of this shard's array into key_out and, when
    /// `ids` is set, of the ids shard's array into id_out. Bit-identical to
    /// the loop
    ///   for k: key_out[k] = Get(start + k);
    ///          id_out[k] = ids->Get(start + k);
    /// — values, ledgers, and the order of fault-hook calls and device
    /// charges — but unobserved arrays are read as two GetRange blocks.
    void GatherPaired(size_t start, uint32_t* key_out, Shard* ids,
                      uint32_t* id_out, size_t count);
    const MemoryStats& stats() const { return stats_; }
    /// This shard's RNG substream.
    const Rng& rng() const { return rng_; }

   private:
    friend class ApproxArrayU32;
    Shard(ApproxArrayU32* array, Rng rng) : array_(array), rng_(rng) {}

    ApproxArrayU32* array_;
    Rng rng_;
    MemoryStats stats_;
    size_t last_written_ = static_cast<size_t>(-1);
  };

  /// True when no fault hook and no device observes this array's accesses:
  /// a read returns the stored value at a fixed cost, and shards of the
  /// array may execute on different threads at the same time (the hook and
  /// the device are shared mutable state that observes the order of calls).
  /// When false, callers must drive the same shard plan serially, in shard
  /// order.
  bool unobserved() const { return plain_reads_; }

  /// Creates `count` shards, splitting one RNG substream per shard off this
  /// array's stream in shard order (so the plan, not the schedule, fixes
  /// every stream). Call MergeShards before touching the array directly
  /// again.
  std::vector<Shard> MakeShards(size_t count);

  /// Folds the shards' ledgers into this array in shard order and resets
  /// the sequential-write cursor (the next direct write is never treated as
  /// sequential).
  void MergeShards(std::vector<Shard>& shards);

  /// Writes `values` into the array front (one Set per element, driven
  /// through SetRange).
  void Store(const std::vector<uint32_t>& values);

  /// Copies all of `src`'s current values into this array, one read from
  /// `src` plus one write here per element (the approx-preparation copy).
  /// Interleaves the reads and writes per element when either array has a
  /// fault hook or a device, which observe that order;
  /// otherwise copies block-wise.
  void CopyFrom(ApproxArrayU32& src);

  /// Current stored values, without touching access counters.
  std::vector<uint32_t> Snapshot() const { return actual_; }
  /// The same values without a copy; valid until the array is next written,
  /// moved or destroyed.
  const std::vector<uint32_t>& stored() const { return actual_; }
  /// Moves the stored values out of an array that is about to be dropped,
  /// with no copy; the array must not be accessed afterwards.
  std::vector<uint32_t> TakeStored() && { return std::move(actual_); }

  /// Peeks at a stored value without accounting (for verification only).
  uint32_t PeekActual(size_t i) const { return actual_[i]; }
  /// True when the last write to element `i` stored a value other than the
  /// one written (never for a precise array without a fault hook).
  bool IsDeviating(size_t i) const {
    APPROXMEM_CHECK(i < actual_.size());
    return !deviating_.empty() && deviating_[i] != 0;
  }

  /// Number of positions where the stored value deviates from the intended
  /// one; ErrorRate() is the paper's "imprecise elements rate".
  size_t DeviatingElements() const;
  double ErrorRate() const;

  const MemoryStats& stats() const { return stats_; }
  void ResetStats() { stats_ = MemoryStats{}; }

  /// Registers an accumulator that receives this array's stats when the
  /// array is destroyed (or FlushStats is called). Lets pipelines account
  /// for scratch buffers that sorts allocate and drop internally.
  void SetStatsSink(MemoryStats* sink) { stats_sink_ = sink; }

  /// Adds current stats to the sink (if any) and resets them.
  void FlushStats();

  uint64_t base_address() const { return base_address_; }
  bool precise() const { return model_ == nullptr; }
  /// The array's own RNG stream: where its next approximate write, or its
  /// next MakeShards split, draws from.
  const Rng& rng() const { return rng_; }

 private:
  // Shared access paths: the public Get/Set/SetRange/GetRange and every
  // Shard drive the same implementations, parameterized on whose RNG
  // stream, stats ledger, and sequential-write cursor they charge.
  uint32_t GetImpl(size_t i, MemoryStats& stats) {
    APPROXMEM_CHECK(i < actual_.size());
    ++stats.word_reads;
    stats.read_cost += device_ != nullptr
                           ? device_->Read(base_address_ + i * 4u)
                           : read_cost_;
    uint32_t value = actual_[i];
    if (fault_hook_ != nullptr) {
      value = fault_hook_->OnRead(base_address_ + i * 4u, precise(), value);
    }
    return value;
  }

  void SetImpl(size_t i, uint32_t value, Rng& rng, MemoryStats& stats,
               size_t& last_written) {
    APPROXMEM_CHECK(i < actual_.size());
    // plain_ implies a null model; testing it first lets the compiler fold
    // ApplyWrite's own test on a plain array.
    ApplyWrite(i, value,
               plain_ || model_ == nullptr ? PreciseOutcome(value)
                                           : model_->Write(value, rng),
               stats, last_written);
  }

  // What a precise write of `value` does.
  WordWriteOutcome PreciseOutcome(uint32_t value) const {
    return WordWriteOutcome{value, precise_write_, precise_pv_};
  }

  // The outcomes of writing values[0, count) in order: the model's batch on
  // an approximate array, the precise outcome on a hooked precise one. A
  // plain array's are left unset: ApplyWrite does not read them.
  void Outcomes(const uint32_t* values, size_t count, Rng& rng,
                WordWriteOutcome* outcomes) const {
    if (model_ != nullptr) {
      model_->WriteBatch(values, count, rng, outcomes);
    } else if (!plain_) {
      for (size_t k = 0; k < count; ++k) {
        outcomes[k] = PreciseOutcome(values[k]);
      }
    }
  }

  // The cost to book for a write of `cost` to element `i`: a device
  // charges it at the element's address.
  double ChargeWrite(size_t i, double cost) {
    return device_ != nullptr
               ? device_->ChargedWrite(base_address_ + i * 4u, cost)
               : cost;
  }

  // The one per-word writer, shared by the scalar, batched and scatter
  // paths: the address charge, fault-hook observation, value store, and
  // stats accrual (in the same order and floating-point order either way).
  // `outcome` is what the write stored and cost before any hook: the
  // model's, or the precise constant's. A plain array's word is always the
  // precise constant, so its `outcome` is not read.
  void ApplyWrite(size_t i, uint32_t value, const WordWriteOutcome& outcome,
                  MemoryStats& stats, size_t& last_written) {
    if (plain_) {
      actual_[i] = value;
      Accrue(i, ChargeWrite(i, precise_write_), precise_pv_, stats,
             last_written);
      return;
    }
    const double cost = ChargeWrite(i, outcome.cost);
    uint32_t stored = outcome.stored;
    if (fault_hook_ != nullptr) {
      stored = fault_hook_->OnWrite(base_address_ + i * 4u, precise(), value,
                                    stored);
    }
    actual_[i] = stored;
    const bool deviated = stored != value;
    deviating_[i] = deviated;
    Accrue(i, cost, outcome.pv_iterations, stats, last_written);
    if (deviated) ++stats.corrupted_writes;
  }

  // The write ledger of one word, with the sequential-write rule.
  void Accrue(size_t i, double cost, double pv_iterations, MemoryStats& stats,
              size_t& last_written) {
    ++stats.word_writes;
    stats.pv_iterations += pv_iterations;
    if (last_written != static_cast<size_t>(-1) && i == last_written + 1) {
      stats.write_cost += cost * seq_discount_;
      ++stats.sequential_writes;
    } else {
      stats.write_cost += cost;
    }
    last_written = i;
  }

  void GetRangeImpl(size_t start, uint32_t* out, size_t count,
                    MemoryStats& stats);

  // The ledger of `count` reads of an unobserved array.
  void ChargeUnobservedReads(size_t count, MemoryStats& stats) const;

  // One array's side of an unobserved ScatterPaired: writes values[k] to
  // element dest[k], in order, drawing from `rng`.
  void ApplyScatter(const size_t* dest, const uint32_t* values, size_t count,
                    Rng& rng, MemoryStats& stats, size_t& last_written);

  void SetRangeImpl(size_t start, const uint32_t* values, size_t count,
                    Rng& rng, MemoryStats& stats, size_t& last_written);

  std::vector<uint32_t> actual_;
  // One flag per element, set when its last write stored a value other than
  // the one written. Empty on a plain array, where no store can deviate. A
  // byte, not a packed bit: shards write disjoint elements concurrently,
  // and neighbouring elements must not share a word.
  std::vector<uint8_t> deviating_;
  // Null for a precise array.
  WriteModel* model_;
  Rng rng_;
  MemoryFaultHook* fault_hook_;
  mem::MemorySystem* device_;
  uint64_t base_address_;
  double read_cost_;
  double seq_discount_;
  // A precise array's write cost and #P per word.
  double precise_write_;
  double precise_pv_;
  // Set when no access is observed from outside (no fault hook, no
  // device): a read is then a copy plus a fixed cost.
  bool plain_reads_;
  // A precise array with no fault hook: a write is then a store plus the
  // fixed precise outcome, and a block of writes can be charged at once.
  bool plain_;
  // Index of the most recent write; SIZE_MAX means "none yet", so the very
  // first write is never treated as sequential.
  size_t last_written_;
  MemoryStats stats_;
  MemoryStats* stats_sink_ = nullptr;
};

}  // namespace approxmem::approx

#endif  // APPROXMEM_APPROX_APPROX_ARRAY_H_
