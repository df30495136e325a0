#include "approx/approx_array.h"

#include <algorithm>

#include "common/stats.h"

namespace approxmem::approx {

ApproxArrayU32::ApproxArrayU32(size_t n, WriteModel* model, Rng rng,
                               uint64_t base_address,
                               double sequential_write_discount,
                               MemoryFaultHook* fault_hook,
                               mem::MemorySystem* device,
                               const PreciseCosts& precise)
    : actual_(n, 0),
      model_(model),
      rng_(rng),
      fault_hook_(fault_hook),
      device_(device),
      base_address_(base_address),
      read_cost_(model != nullptr ? model->ReadCost() : precise.read),
      seq_discount_(sequential_write_discount),
      precise_write_(precise.write),
      precise_pv_(precise.pv),
      plain_reads_(fault_hook == nullptr && device == nullptr),
      plain_(fault_hook == nullptr && model == nullptr),
      last_written_(static_cast<size_t>(-1)) {
  if (!plain_) deviating_.assign(n, 0);
}

ApproxArrayU32::~ApproxArrayU32() { FlushStats(); }

ApproxArrayU32::ApproxArrayU32(ApproxArrayU32&& other) noexcept
    : actual_(std::move(other.actual_)),
      deviating_(std::move(other.deviating_)),
      model_(other.model_),
      rng_(other.rng_),
      fault_hook_(other.fault_hook_),
      device_(other.device_),
      base_address_(other.base_address_),
      read_cost_(other.read_cost_),
      seq_discount_(other.seq_discount_),
      precise_write_(other.precise_write_),
      precise_pv_(other.precise_pv_),
      plain_reads_(other.plain_reads_),
      plain_(other.plain_),
      last_written_(other.last_written_),
      stats_(other.stats_),
      stats_sink_(other.stats_sink_) {
  // The source must not double-flush to the sink.
  other.stats_ = MemoryStats{};
  other.stats_sink_ = nullptr;
}

ApproxArrayU32& ApproxArrayU32::operator=(ApproxArrayU32&& other) noexcept {
  if (this != &other) {
    FlushStats();
    actual_ = std::move(other.actual_);
    deviating_ = std::move(other.deviating_);
    model_ = other.model_;
    rng_ = other.rng_;
    fault_hook_ = other.fault_hook_;
    device_ = other.device_;
    base_address_ = other.base_address_;
    read_cost_ = other.read_cost_;
    seq_discount_ = other.seq_discount_;
    precise_write_ = other.precise_write_;
    precise_pv_ = other.precise_pv_;
    plain_reads_ = other.plain_reads_;
    plain_ = other.plain_;
    last_written_ = other.last_written_;
    stats_ = other.stats_;
    stats_sink_ = other.stats_sink_;
    other.stats_ = MemoryStats{};
    other.stats_sink_ = nullptr;
  }
  return *this;
}

void ApproxArrayU32::SetRangeImpl(size_t start, const uint32_t* values,
                                  size_t count, Rng& rng, MemoryStats& stats,
                                  size_t& last_written) {
  APPROXMEM_CHECK(start + count <= actual_.size());
  if (count == 0) return;
  // A local ledger and cursor the compiler can keep in registers: a store
  // to deviating_ may alias the caller's ledger and would force it through
  // memory on every word.
  MemoryStats ledger = stats;
  size_t last = last_written;
  if (plain_ && device_ == nullptr) {
    // Nothing observes the words: store them, then charge the first word
    // with the cross-call sequential rule and the rest as sequential words
    // of one fixed cost, summed exactly by AddRepeated.
    std::copy(values, values + count, actual_.begin() + start);
    Accrue(start, precise_write_, precise_pv_, ledger, last);
    const size_t rest = count - 1;
    ledger.word_writes += rest;
    ledger.sequential_writes += rest;
    ledger.write_cost =
        AddRepeated(ledger.write_cost, precise_write_ * seq_discount_, rest);
    ledger.pv_iterations = AddRepeated(ledger.pv_iterations, precise_pv_, rest);
    last = start + count - 1;
  } else {
    constexpr size_t kChunkWords = 64;
    WordWriteOutcome outcomes[kChunkWords];
    for (size_t done = 0; done < count; done += kChunkWords) {
      const size_t chunk = std::min(count - done, kChunkWords);
      Outcomes(values + done, chunk, rng, outcomes);
      for (size_t k = 0; k < chunk; ++k) {
        ApplyWrite(start + done + k, values[done + k], outcomes[k], ledger,
                   last);
      }
    }
  }
  stats = ledger;
  last_written = last;
}

void ApproxArrayU32::Shard::ScatterPaired(const size_t* dest,
                                          const uint32_t* key_values,
                                          Shard* ids,
                                          const uint32_t* id_values,
                                          size_t count) {
  APPROXMEM_CHECK(count <= kScatterBlock && ids != this);
  ApproxArrayU32& keys = *array_;
  ApproxArrayU32* id_array = ids != nullptr ? ids->array_ : nullptr;
  for (size_t k = 0; k < count; ++k) {
    APPROXMEM_CHECK(dest[k] < keys.size() &&
                    (id_array == nullptr || dest[k] < id_array->size()));
  }
  // Each array draws from its own stream, so applying or batching per
  // array leaves every draw where the interleaved loop puts it.
  if (keys.plain_reads_ && (ids == nullptr || id_array->plain_reads_)) {
    // Nothing observes the order across the two arrays.
    keys.ApplyScatter(dest, key_values, count, rng_, stats_, last_written_);
    if (ids != nullptr) {
      id_array->ApplyScatter(dest, id_values, count, ids->rng_, ids->stats_,
                             ids->last_written_);
    }
    return;
  }
  // A hook or a banked device shared by both arrays must see the
  // interleaved loop's order: element by element, key before id.
  WordWriteOutcome key_outcomes[kScatterBlock];
  WordWriteOutcome id_outcomes[kScatterBlock];
  keys.Outcomes(key_values, count, rng_, key_outcomes);
  if (ids != nullptr) {
    id_array->Outcomes(id_values, count, ids->rng_, id_outcomes);
  }
  MemoryStats key_ledger = stats_;
  size_t key_last = last_written_;
  MemoryStats id_ledger = ids != nullptr ? ids->stats_ : MemoryStats{};
  size_t id_last = ids != nullptr ? ids->last_written_ : 0;
  for (size_t k = 0; k < count; ++k) {
    keys.ApplyWrite(dest[k], key_values[k], key_outcomes[k], key_ledger,
                    key_last);
    if (ids != nullptr) {
      id_array->ApplyWrite(dest[k], id_values[k], id_outcomes[k], id_ledger,
                           id_last);
    }
  }
  stats_ = key_ledger;
  last_written_ = key_last;
  if (ids != nullptr) {
    ids->stats_ = id_ledger;
    ids->last_written_ = id_last;
  }
}

void ApproxArrayU32::ApplyScatter(const size_t* dest, const uint32_t* values,
                                  size_t count, Rng& rng, MemoryStats& stats,
                                  size_t& last_written) {
  MemoryStats ledger = stats;
  size_t last = last_written;
  if (plain_ && seq_discount_ == 1.0) {
    // Undiscounted precise words all cost the same, sequential or not.
    uint64_t sequential = 0;
    for (size_t k = 0; k < count; ++k) {
      actual_[dest[k]] = values[k];
      sequential += last != static_cast<size_t>(-1) && dest[k] == last + 1;
      last = dest[k];
    }
    ledger.word_writes += count;
    ledger.sequential_writes += sequential;
    ledger.write_cost = AddRepeated(ledger.write_cost, precise_write_, count);
    ledger.pv_iterations =
        AddRepeated(ledger.pv_iterations, precise_pv_, count);
  } else {
    WordWriteOutcome outcomes[kScatterBlock];
    Outcomes(values, count, rng, outcomes);
    for (size_t k = 0; k < count; ++k) {
      ApplyWrite(dest[k], values[k], outcomes[k], ledger, last);
    }
  }
  stats = ledger;
  last_written = last;
}

void ApproxArrayU32::Shard::GatherPaired(size_t start, uint32_t* key_out,
                                         Shard* ids, uint32_t* id_out,
                                         size_t count) {
  APPROXMEM_CHECK(ids != this);
  ApproxArrayU32& keys = *array_;
  if (keys.plain_reads_ && (ids == nullptr || ids->array_->plain_reads_)) {
    keys.GetRangeImpl(start, key_out, count, stats_);
    if (ids != nullptr) {
      ids->array_->GetRangeImpl(start, id_out, count, ids->stats_);
    }
    return;
  }
  for (size_t k = 0; k < count; ++k) {
    key_out[k] = keys.GetImpl(start + k, stats_);
    if (ids != nullptr) {
      id_out[k] = ids->array_->GetImpl(start + k, ids->stats_);
    }
  }
}

void ApproxArrayU32::GetRangeImpl(size_t start, uint32_t* out, size_t count,
                                  MemoryStats& stats) {
  if (!plain_reads_) {
    for (size_t k = 0; k < count; ++k) out[k] = GetImpl(start + k, stats);
    return;
  }
  APPROXMEM_CHECK(start + count <= actual_.size());
  std::copy(actual_.begin() + start, actual_.begin() + start + count, out);
  ChargeUnobservedReads(count, stats);
}

void ApproxArrayU32::GetIndexed(const uint32_t* index, uint32_t* out,
                                size_t count) {
  if (!plain_reads_) {
    for (size_t k = 0; k < count; ++k) out[k] = GetImpl(index[k], stats_);
    return;
  }
  for (size_t k = 0; k < count; ++k) {
    APPROXMEM_CHECK(index[k] < actual_.size());
    out[k] = actual_[index[k]];
  }
  ChargeUnobservedReads(count, stats_);
}

void ApproxArrayU32::ChargeReads(size_t count) {
  APPROXMEM_CHECK(plain_reads_);
  ChargeUnobservedReads(count, stats_);
}

void ApproxArrayU32::ChargeUnobservedReads(size_t count,
                                           MemoryStats& stats) const {
  // Exactly the Get loop's per-word adds, in word order.
  stats.read_cost = AddRepeated(stats.read_cost, read_cost_, count);
  stats.word_reads += count;
}

std::vector<ApproxArrayU32::Shard> ApproxArrayU32::MakeShards(size_t count) {
  std::vector<Shard> shards;
  shards.reserve(count);
  for (size_t s = 0; s < count; ++s) {
    shards.push_back(Shard(this, rng_.Split()));
  }
  return shards;
}

void ApproxArrayU32::MergeShards(std::vector<Shard>& shards) {
  for (Shard& shard : shards) {
    APPROXMEM_CHECK(shard.array_ == this);
    stats_ += shard.stats_;
    shard.stats_ = MemoryStats{};
  }
  // Shard cursors are gone; the next direct write starts a fresh run.
  last_written_ = static_cast<size_t>(-1);
}

void ApproxArrayU32::FlushStats() {
  if (stats_sink_ != nullptr) {
    *stats_sink_ += stats_;
    stats_ = MemoryStats{};
  }
}

void ApproxArrayU32::Store(const std::vector<uint32_t>& values) {
  APPROXMEM_CHECK(values.size() <= actual_.size());
  SetRange(0, values.data(), values.size());
}

void ApproxArrayU32::CopyFrom(ApproxArrayU32& src) {
  APPROXMEM_CHECK(src.size() == size());
  if (!src.plain_reads_ || !plain_reads_) {
    // Hooks and banked devices observe the per-element read, write
    // interleaving.
    for (size_t i = 0; i < size(); ++i) Set(i, src.Get(i));
    return;
  }
  constexpr size_t kBlock = 256;
  uint32_t block[kBlock];
  for (size_t start = 0; start < size(); start += kBlock) {
    const size_t m = std::min(kBlock, size() - start);
    src.GetRange(start, block, m);
    SetRange(start, block, m);
  }
}

size_t ApproxArrayU32::DeviatingElements() const {
  return static_cast<size_t>(
      std::count(deviating_.begin(), deviating_.end(), uint8_t{1}));
}

double ApproxArrayU32::ErrorRate() const {
  if (actual_.empty()) return 0.0;
  return static_cast<double>(DeviatingElements()) /
         static_cast<double>(actual_.size());
}

}  // namespace approxmem::approx
