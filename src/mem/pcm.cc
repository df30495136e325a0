#include "mem/pcm.h"

#include <algorithm>
#include <bit>

#include "common/check.h"

namespace approxmem::mem {

Status PcmConfig::Validate() const {
  if (ranks == 0 || banks_per_rank == 0) {
    return Status::InvalidArgument("ranks and banks_per_rank must be > 0");
  }
  if (page_bytes == 0 || (page_bytes & (page_bytes - 1)) != 0) {
    return Status::InvalidArgument("page_bytes must be a power of two");
  }
  if (write_queue_depth == 0 || read_queue_depth == 0) {
    return Status::InvalidArgument("queue depths must be > 0");
  }
  if (read_latency_ns <= 0.0 || write_latency_ns <= 0.0) {
    return Status::InvalidArgument("latencies must be positive");
  }
  if (row_buffer_hit_factor <= 0.0 || row_buffer_hit_factor > 1.0) {
    return Status::InvalidArgument("row_buffer_hit_factor must be in (0, 1]");
  }
  return Status::Ok();
}

PcmSimulator::PcmSimulator(const PcmConfig& config)
    : config_(config),
      page_shift_(static_cast<uint32_t>(std::countr_zero(config.page_bytes))),
      banks_pow2_(std::has_single_bit(config.TotalBanks())) {
  APPROXMEM_CHECK_OK(config.Validate());
  banks_.resize(config.TotalBanks());
  for (Bank& bank : banks_) bank.ring.resize(config.write_queue_depth);
}

uint32_t PcmSimulator::BankOf(uint64_t address) const {
  const uint64_t page = address >> page_shift_;
  const uint32_t banks = config_.TotalBanks();
  return static_cast<uint32_t>(banks_pow2_ ? page & (banks - 1)
                                           : page % banks);
}

uint64_t PcmSimulator::RowOf(uint64_t address) const {
  return address >> page_shift_;
}

double PcmSimulator::ServiceLatency(Bank& bank, uint64_t row,
                                    double base_ns) {
  if (config_.row_buffer_hit_factor < 1.0 && bank.open_row == row) {
    ++stats_.row_buffer_hits;
    return base_ns * config_.row_buffer_hit_factor;
  }
  bank.open_row = row;
  return base_ns;
}

void PcmSimulator::PumpBank(Bank& bank, double now) {
  // Start queued writes back-to-back while the bank frees up before `now`.
  while (bank.queued > 0 && bank.inflight_end_ns <= now) {
    const QueuedWrite& write = bank.Front();
    const double start = std::max(write.arrival_ns, bank.inflight_end_ns);
    if (start > now) break;
    const double service = ServiceLatency(bank, write.row, write.service_ns);
    bank.inflight_end_ns = start + service;
    stats_.total_write_latency_ns += service;
    bank.PopFront();
  }
}

double PcmSimulator::DrainOneWrite(Bank& bank) {
  APPROXMEM_CHECK(bank.queued > 0);
  const QueuedWrite write = bank.Front();
  bank.PopFront();
  const double start = std::max(write.arrival_ns, bank.inflight_end_ns);
  const double service = ServiceLatency(bank, write.row, write.service_ns);
  bank.inflight_end_ns = start + service;
  stats_.total_write_latency_ns += service;
  return bank.inflight_end_ns;
}

double PcmSimulator::FaultFactor(uint64_t address, AccessKind kind) {
  if (faults_ == nullptr) return 1.0;
  const double factor = faults_->OnPcmAccess(address, kind);
  if (factor != 1.0) ++stats_.faulted_accesses;
  return factor;
}

double PcmSimulator::Read(uint64_t address) {
  Bank& bank = banks_[BankOf(address)];
  const double now = cpu_time_ns_;
  PumpBank(bank, now);
  // Read priority: the read bypasses queued writes but must wait for the
  // operation currently occupying the bank.
  const double start = std::max(now, bank.inflight_end_ns);
  const double end =
      start + ServiceLatency(bank, RowOf(address),
                             config_.read_latency_ns *
                                 FaultFactor(address, AccessKind::kRead));
  bank.inflight_end_ns = end;
  const double wait = start - now;
  stats_.read_queue_wait_ns += wait;
  stats_.total_read_latency_ns += end - now;
  ++stats_.reads;
  cpu_time_ns_ = end;
  return end - now;
}

void PcmSimulator::Write(uint64_t address) {
  Write(address, config_.write_latency_ns);
}

void PcmSimulator::Write(uint64_t address, double service_latency_ns) {
  Bank& bank = banks_[BankOf(address)];
  PumpBank(bank, cpu_time_ns_);
  if (bank.queued == config_.write_queue_depth) {
    // Full write queue: the CPU stalls until the oldest write drains.
    const double freed_at = DrainOneWrite(bank);
    if (freed_at > cpu_time_ns_) {
      stats_.write_stall_ns += freed_at - cpu_time_ns_;
      cpu_time_ns_ = freed_at;
    }
    ++stats_.write_queue_full_events;
  }
  bank.PushBack(
      QueuedWrite{cpu_time_ns_,
                  service_latency_ns * FaultFactor(address, AccessKind::kWrite),
                  RowOf(address)});
  ++stats_.writes;
}

void PcmSimulator::Finish() {
  double completion = cpu_time_ns_;
  for (auto& bank : banks_) {
    while (bank.queued > 0) {
      DrainOneWrite(bank);
    }
    completion = std::max(completion, bank.inflight_end_ns);
  }
  stats_.completion_time_ns = completion;
}

}  // namespace approxmem::mem
