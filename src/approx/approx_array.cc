#include "approx/approx_array.h"

#include <algorithm>

namespace approxmem::approx {

ApproxArrayU32::ApproxArrayU32(size_t n, WriteModel* model, Rng rng,
                               mem::TraceBuffer* trace, uint64_t base_address,
                               double sequential_write_discount,
                               MemoryFaultHook* fault_hook)
    : actual_(n, 0),
      model_(model),
      rng_(rng),
      trace_(trace),
      fault_hook_(fault_hook),
      base_address_(base_address),
      read_cost_(model != nullptr ? model->ReadCost() : 0.0),
      seq_discount_(sequential_write_discount),
      precise_(model == nullptr || model->IsPrecise()),
      address_sensitive_(model != nullptr && model->AddressSensitive()),
      last_written_(static_cast<size_t>(-1)) {
  // A null model is only legal for empty placeholder arrays.
  APPROXMEM_CHECK(model != nullptr || n == 0);
  if (!precise_ || fault_hook_ != nullptr) deviating_.assign(n, 0);
}

ApproxArrayU32::~ApproxArrayU32() { FlushStats(); }

ApproxArrayU32::ApproxArrayU32(ApproxArrayU32&& other) noexcept
    : actual_(std::move(other.actual_)),
      deviating_(std::move(other.deviating_)),
      model_(other.model_),
      rng_(other.rng_),
      trace_(other.trace_),
      fault_hook_(other.fault_hook_),
      base_address_(other.base_address_),
      read_cost_(other.read_cost_),
      seq_discount_(other.seq_discount_),
      precise_(other.precise_),
      address_sensitive_(other.address_sensitive_),
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
    trace_ = other.trace_;
    fault_hook_ = other.fault_hook_;
    base_address_ = other.base_address_;
    read_cost_ = other.read_cost_;
    seq_discount_ = other.seq_discount_;
    precise_ = other.precise_;
    address_sensitive_ = other.address_sensitive_;
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
  if (address_sensitive_) {
    // Banked/trace-driven models need the address per word; no batch path.
    for (size_t k = 0; k < count; ++k) {
      SetImpl(start + k, values[k], rng, stats, last_written);
    }
    return;
  }
  constexpr size_t kChunkWords = 64;
  WordWriteOutcome outcomes[kChunkWords];
  for (size_t done = 0; done < count; done += kChunkWords) {
    const size_t chunk = std::min(count - done, kChunkWords);
    model_->WriteBatch(values + done, chunk, rng, outcomes);
    for (size_t k = 0; k < chunk; ++k) {
      ApplyWrite(start + done + k, values[done + k], outcomes[k], stats,
                 last_written);
    }
  }
}

void ApproxArrayU32::Shard::ScatterPaired(const size_t* dest,
                                          const uint32_t* key_values,
                                          Shard* ids,
                                          const uint32_t* id_values,
                                          size_t count) {
  APPROXMEM_CHECK(count <= kScatterBlock && ids != this);
  ApproxArrayU32& keys = *array_;
  ApproxArrayU32* id_array = ids != nullptr ? ids->array_ : nullptr;
  if (keys.address_sensitive_ ||
      (id_array != nullptr && id_array->address_sensitive_)) {
    // Banked models share device state across arrays: keep the
    // per-element key, id interleaving at the model too.
    for (size_t k = 0; k < count; ++k) {
      Set(dest[k], key_values[k]);
      if (ids != nullptr) ids->Set(dest[k], id_values[k]);
    }
    return;
  }
  for (size_t k = 0; k < count; ++k) {
    APPROXMEM_CHECK(dest[k] < keys.size() &&
                    (id_array == nullptr || dest[k] < id_array->size()));
  }
  // Each array draws from its own stream, so batching per array leaves
  // every draw where the interleaved loop puts it; the outcomes are then
  // applied in element order, key before id.
  WordWriteOutcome key_outcomes[kScatterBlock];
  WordWriteOutcome id_outcomes[kScatterBlock];
  keys.model_->WriteBatch(key_values, count, rng_, key_outcomes);
  if (ids != nullptr) {
    id_array->model_->WriteBatch(id_values, count, ids->rng_, id_outcomes);
  }
  for (size_t k = 0; k < count; ++k) {
    keys.ApplyWrite(dest[k], key_values[k], key_outcomes[k], stats_,
                    last_written_);
    if (ids != nullptr) {
      id_array->ApplyWrite(dest[k], id_values[k], id_outcomes[k],
                           ids->stats_, ids->last_written_);
    }
  }
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
  for (size_t i = 0; i < values.size(); ++i) Set(i, values[i]);
}

void ApproxArrayU32::CopyFrom(ApproxArrayU32& src) {
  APPROXMEM_CHECK(src.size() == size());
  for (size_t i = 0; i < size(); ++i) Set(i, src.Get(i));
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
