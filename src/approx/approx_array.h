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
#include <vector>

#include "approx/fault_hook.h"
#include "approx/memory_stats.h"
#include "approx/write_model.h"
#include "common/check.h"
#include "common/random.h"
#include "mem/memory_system.h"

namespace approxmem::approx {

/// A fixed-size array of 32-bit words stored through a WriteModel.
///
/// The array does not own its WriteModel (ApproxMemory does); it owns its
/// own RNG stream so results do not depend on operation interleaving across
/// arrays. Move-only.
class ApproxArrayU32 {
 public:
  /// Element i lives at byte address `base_address` + 4i. `device`, when
  /// set (the banked backend's Table 1 memory system, shared by every
  /// array of one ApproxMemory), sees each access at that address and
  /// charges it: a read books the device's latency instead of the model's
  /// flat read cost, and a write books its outcome cost plus the stall its
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
                 mem::MemorySystem* device = nullptr);
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
  /// kernel (bit-identical to the equivalent Set loop, including the
  /// sequential-write discount and the RNG draw sequence).
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
  /// run concurrently only when ConcurrentShardSafe() holds and no index is
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
    /// calls and device charges — but each array's model runs
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

   private:
    friend class ApproxArrayU32;
    Shard(ApproxArrayU32* array, Rng rng) : array_(array), rng_(rng) {}

    ApproxArrayU32* array_;
    Rng rng_;
    MemoryStats stats_;
    size_t last_written_ = static_cast<size_t>(-1);
  };

  /// True when shards of this array may execute on different threads at the
  /// same time: no fault hook and no device (shared mutable state that
  /// observes the order of calls). When false, callers must drive the
  /// same shard plan serially, in shard order.
  bool ConcurrentShardSafe() const { return plain_reads_; }

  /// True when no fault hook and no device observes this array's accesses:
  /// a read returns the stored value at a fixed cost.
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
  bool precise() const { return precise_; }

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
      value = fault_hook_->OnRead(base_address_ + i * 4u, precise_, value);
    }
    return value;
  }

  void SetImpl(size_t i, uint32_t value, Rng& rng, MemoryStats& stats,
               size_t& last_written) {
    APPROXMEM_CHECK(i < actual_.size());
    if (plain_) {
      PlainWrite(i, value, stats, last_written);
      return;
    }
    ApplyWrite(i, value, model_->Write(value, rng), stats, last_written);
  }

  // The cost to book for a write of `cost` to element `i`: a device
  // charges it at the element's address.
  double ChargeWrite(size_t i, double cost) {
    return device_ != nullptr
               ? device_->ChargedWrite(base_address_ + i * 4u, cost)
               : cost;
  }

  // Post-model bookkeeping shared by the scalar and batched write paths:
  // the address charge, fault-hook observation, value stores, and stats
  // accrual (in the same order and floating-point order either way).
  void ApplyWrite(size_t i, uint32_t value, const WordWriteOutcome& outcome,
                  MemoryStats& stats, size_t& last_written) {
    const double cost = ChargeWrite(i, outcome.cost);
    uint32_t stored = outcome.stored;
    if (fault_hook_ != nullptr) {
      stored = fault_hook_->OnWrite(base_address_ + i * 4u, precise_, value,
                                    stored);
    }
    actual_[i] = stored;
    const bool deviated = stored != value;
    if (!deviating_.empty()) {
      deviating_[i] = deviated;
    } else {
      APPROXMEM_CHECK(!deviated);  // Precise models store what they write.
    }
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

  // Plain-path write: the value is stored as given and the model's fixed
  // outcome charged, exactly as Write() plus ApplyWrite() would.
  void PlainWrite(size_t i, uint32_t value, MemoryStats& stats,
                  size_t& last_written) {
    actual_[i] = value;
    Accrue(i, ChargeWrite(i, plain_cost_), plain_pv_, stats, last_written);
  }

  // One element of a paired scatter; `outcome` is unused on plain arrays.
  void ScatterWrite(size_t i, uint32_t value, const WordWriteOutcome& outcome,
                    MemoryStats& stats, size_t& last_written) {
    if (plain_) {
      PlainWrite(i, value, stats, last_written);
    } else {
      ApplyWrite(i, value, outcome, stats, last_written);
    }
  }

  void GetRangeImpl(size_t start, uint32_t* out, size_t count,
                    MemoryStats& stats);

  // The ledger of `count` reads of an unobserved array.
  void ChargeUnobservedReads(size_t count, MemoryStats& stats) const;

  // One array's side of an unobserved ScatterPaired: writes values[k] to
  // element dest[k], with outcomes[k] for a non-plain array, in order.
  void ApplyScatter(const size_t* dest, const uint32_t* values,
                    const WordWriteOutcome* outcomes, size_t count,
                    MemoryStats& stats, size_t& last_written);

  void SetRangeImpl(size_t start, const uint32_t* values, size_t count,
                    Rng& rng, MemoryStats& stats, size_t& last_written);

  std::vector<uint32_t> actual_;
  // One flag per element, set when its last write stored a value other than
  // the one written. Empty when no store can deviate (a precise model and no
  // fault hook). A byte, not a packed bit: shards write disjoint elements
  // concurrently, and neighbouring elements must not share a word.
  std::vector<uint8_t> deviating_;
  WriteModel* model_;
  Rng rng_;
  MemoryFaultHook* fault_hook_;
  mem::MemorySystem* device_;
  uint64_t base_address_;
  double read_cost_;
  double seq_discount_;
  // Cached model_->IsPrecise() (true for empty placeholder arrays); lets
  // Get/Set report the precision domain to the fault hook without a
  // virtual call per access.
  bool precise_;
  // Set when no access is observed from outside (no fault hook, no
  // device): a read is then a copy plus a fixed cost.
  bool plain_reads_;
  // No fault hook on a precise model: a write is then a store plus the
  // model's fixed outcome (plain_cost_, plain_pv_), read once at
  // construction, charged through ChargeWrite, and never calls Write()
  // (see write_model.h).
  bool plain_;
  double plain_cost_ = 0.0;
  double plain_pv_ = 0.0;
  // Index of the most recent write; SIZE_MAX means "none yet", so the very
  // first write is never treated as sequential.
  size_t last_written_;
  MemoryStats stats_;
  MemoryStats* stats_sink_ = nullptr;
};

}  // namespace approxmem::approx

#endif  // APPROXMEM_APPROX_APPROX_ARRAY_H_
