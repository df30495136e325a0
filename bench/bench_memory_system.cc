// Substrate demonstration: a quicksort on the mlc-pcm-banked backend, whose
// Table 1 memory system (write-through L1/L2/L3 + banked PCM with
// read-priority scheduling) sees every array access as it happens. Reports
// cache hit rates, queue behaviour, and how the total write latency shrinks
// when the sort runs in approximate memory (T = 0.055), at the write latency
// the calibrated model gives that T.
#include <cstdio>
#include <cstdlib>
#include <optional>
#include <string>
#include <vector>

#include "approx/approx_memory.h"
#include "bench/bench_lib.h"
#include "common/table_printer.h"
#include "mem/memory_system.h"
#include "sort/sort_common.h"

namespace approxmem {
namespace {

struct DeviceRun {
  mem::MemorySystemStats system;
  mem::PcmStats pcm;
};

// Quicksorts `keys` in the precise domain (no `t`) or at `t`, on a fresh
// banked memory, and returns its device's statistics.
DeviceRun RunBanked(const bench::BenchEnv& env,
                    const std::vector<uint32_t>& keys,
                    std::optional<double> t) {
  approx::ApproxMemory::Options options = bench::MakeEngineOptions(env);
  options.backend = std::string(approx::kBankedPcmBackendName);  // Always.
  approx::ApproxMemory memory(options);
  approx::ApproxArrayU32 array = t ? memory.NewApproxArray(keys.size(), *t)
                                   : memory.NewPreciseArray(keys.size());
  array.Store(keys);
  sort::SortSpec spec;
  spec.keys = &array;
  Rng rng(env.seed);
  const Status status =
      sort::RunSort(spec, {sort::SortKind::kQuicksort, 0}, rng);
  if (!status.ok()) {
    std::fprintf(stderr, "%s\n", status.ToString().c_str());
    std::exit(1);
  }
  mem::MemorySystem& system = *memory.backend().cost_system();
  DeviceRun run;
  run.system = system.Finish();
  run.pcm = system.pcm().Stats();
  return run;
}

int Main(int argc, char** argv) {
  const bench::BenchEnv env = bench::ParseBenchEnv(
      argc, argv, 100000, approx::kBankedPcmBackendName);
  bench::PrintRunHeader(
      "Memory-system substrate: banked quicksort through cache + PCM", env);
  const auto keys =
      core::MakeKeys(core::WorkloadKind::kUniform, env.n, env.seed);
  const DeviceRun precise = RunBanked(env, keys, std::nullopt);
  const DeviceRun approx = RunBanked(env, keys, 0.055);

  TablePrinter table(
      "Quicksort on the Table 1 memory system (mlc-pcm-banked)");
  table.SetHeader({"metric", "precise PCM", "approx PCM (T=0.055)"});
  auto add_count = [&table](const std::string& name, uint64_t a,
                            uint64_t b) {
    table.AddRow({name, TablePrinter::FmtInt(static_cast<long long>(a)),
                  TablePrinter::FmtInt(static_cast<long long>(b))});
  };
  auto add_ms = [&table](const std::string& name, double a_ns, double b_ns) {
    table.AddRow({name, TablePrinter::Fmt(a_ns / 1e6, 2) + " ms",
                  TablePrinter::Fmt(b_ns / 1e6, 2) + " ms"});
  };
  add_count("reads", precise.system.reads, approx.system.reads);
  add_count("writes", precise.system.writes, approx.system.writes);
  add_count("L1 read hits", precise.system.l1_read_hits,
            approx.system.l1_read_hits);
  add_count("L2 read hits", precise.system.l2_read_hits,
            approx.system.l2_read_hits);
  add_count("L3 read hits", precise.system.l3_read_hits,
            approx.system.l3_read_hits);
  add_count("PCM reads", precise.pcm.reads, approx.pcm.reads);
  add_count("PCM writes", precise.pcm.writes, approx.pcm.writes);
  add_count("write-queue-full events", precise.pcm.write_queue_full_events,
            approx.pcm.write_queue_full_events);
  add_ms("total read latency", precise.system.total_read_latency_ns,
         approx.system.total_read_latency_ns);
  add_ms("total write latency", precise.system.total_write_latency_ns,
         approx.system.total_write_latency_ns);
  add_ms("CPU write stalls", precise.system.write_stall_ns,
         approx.system.write_stall_ns);
  add_ms("completion time", precise.system.completion_time_ns,
         approx.system.completion_time_ns);
  table.Print();
  std::printf(
      "\nThe approximate run charges each write the calibrated T=0.055 "
      "latency (avg #P), so the saving and its knock-on effect on "
      "write-queue stalls show end to end. Corrupted keys can change the "
      "sort's access pattern, so the access counts may differ too.\n");
  return 0;
}

}  // namespace
}  // namespace approxmem

int main(int argc, char** argv) { return approxmem::Main(argc, argv); }
