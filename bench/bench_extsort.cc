// Out-of-core external sort (Section 4.1's disk scenario at production
// scale): approx-refine run formation overlapped with async device I/O,
// then loser-tree merge passes, all under a strict memory budget.
//
// Disk traffic is identical between the approximate and precise
// configurations; the in-memory write cost drops by the approx-refine
// write reduction. The bench runs both configurations, checks the
// determinism contract (spill/output digests byte-identical with the I/O
// pool at --threads vs. 1) and gates the run-formation overlap ratio at
// > 1.0 (the pipeline must hide at least some I/O under compute); either
// failure exits 1. Its table holds virtual-time results only and is written
// to extsort.csv, which ctest pins byte for byte (GoldenParity.extsort_*).
//
// The default device is deliberately slow (--bandwidth_mb=8, --latency_us=500)
// so I/O is a visible fraction of the simulated-PCM-dominated pipeline;
// the overlap gate itself holds at any device speed because the virtual
// timeline is deterministic.
#include <cstdio>
#include <memory>

#include "bench/bench_lib.h"
#include "common/table_printer.h"
#include "common/thread_pool.h"
#include "extsort/async_device.h"
#include "extsort/external_sort.h"

namespace approxmem {
namespace {

extsort::ExternalSortReport RunConfig(const bench::BenchEnv& env,
                                      const std::vector<uint32_t>& input,
                                      const extsort::AsyncDeviceConfig& device_config,
                                      size_t budget_bytes, bool use_approx,
                                      int io_threads) {
  std::unique_ptr<ThreadPool> pool;
  if (io_threads != 1) pool = std::make_unique<ThreadPool>(io_threads);
  core::ApproxSortEngine engine = bench::MakeEngine(env);
  extsort::AsyncDevice device(device_config, pool.get());
  const int input_file = device.CreateFile();
  device.Wait(device.SubmitWrite(input_file, input, 0.0));
  device.ResetClock();

  extsort::ExternalSortOptions options;
  options.memory_budget_bytes = budget_bytes;
  options.algorithm = sort::AlgorithmId{sort::SortKind::kLsdRadix, 3};
  options.t = 0.055;
  options.use_approx_refine = use_approx;
  extsort::ExternalSortReport report = bench::RequireOk(
      extsort::ExternalSort(engine, device, input_file, options, nullptr),
      use_approx ? "extsort approx" : "extsort precise");
  if (!report.verified) {
    std::fprintf(stderr, "extsort (%s): output FAILED verification\n",
                 use_approx ? "approx" : "precise");
    std::exit(1);
  }
  return report;
}

int Main(int argc, char** argv) {
  const bench::BenchEnv env = bench::ParseBenchEnv(argc, argv, 400000);
  bench::PrintRunHeader(
      "Out-of-core external sort: async I/O overlap + approx-refine runs",
      env);
  const auto input =
      core::MakeKeys(core::WorkloadKind::kUniform, env.n, env.seed);

  extsort::AsyncDeviceConfig device_config;
  device_config.block_bytes =
      static_cast<size_t>(env.flags.GetInt("block_kb", 4)) * 1024;
  device_config.bandwidth_mb_per_s = env.flags.GetDouble("bandwidth_mb", 8.0);
  device_config.latency_us = env.flags.GetDouble("latency_us", 500.0);
  device_config.queue_depth =
      static_cast<int>(env.flags.GetInt("queue_depth", 4));
  const size_t budget_bytes = static_cast<size_t>(
      env.flags.GetInt("budget_mb",
                       static_cast<int64_t>(
                           std::max<size_t>(1, (env.n * 4) >> 20 >> 3) + 1)))
      << 20;
  const int io_threads = env.threads <= 0 ? ThreadPool::HardwareThreads()
                                          : env.threads;

  const extsort::ExternalSortReport approximate =
      RunConfig(env, input, device_config, budget_bytes, /*use_approx=*/true,
                io_threads);
  const extsort::ExternalSortReport precise =
      RunConfig(env, input, device_config, budget_bytes, /*use_approx=*/false,
                io_threads);

  TablePrinter table("External sort under a " +
                     TablePrinter::FmtInt(
                         static_cast<long long>(budget_bytes >> 20)) +
                     " MiB budget");
  table.SetHeader({"config", "runs", "passes", "fan_in", "spilled_mb",
                   "overlap_form", "overlap_merge", "mem_write_ms", "WR",
                   "spill_digest", "output_digest", "verified"});
  const auto add_row = [&](const char* name,
                           const extsort::ExternalSortReport& r) {
    table.AddRow(
        {name,
         TablePrinter::FmtInt(static_cast<long long>(r.initial_runs)),
         TablePrinter::FmtInt(static_cast<long long>(r.merge_passes)),
         TablePrinter::FmtInt(static_cast<long long>(r.merge_fan_in)),
         TablePrinter::Fmt(static_cast<double>(r.bytes_spilled) / (1 << 20),
                           1),
         TablePrinter::Fmt(r.run_formation.OverlapRatio(), 3),
         TablePrinter::Fmt(r.merge.OverlapRatio(), 3),
         TablePrinter::Fmt(r.memory_write_cost / 1e6, 1),
         TablePrinter::FmtPercent(
             1.0 - r.memory_write_cost / precise.memory_write_cost, 2),
         bench::HexDigest(r.spill_digest),
         bench::HexDigest(r.output_digest),
         r.verified ? "yes" : "NO"});
  };
  add_row("approx-refine", approximate);
  add_row("precise", precise);
  table.Print();
  bench::WriteCsv(env, table, "extsort.csv");
  std::printf("in-memory write reduction (WR, Eq. 2) relative to the "
              "precise run; disk traffic identical by construction\n");

  // Gate 1 — determinism: the async overlap must not leak thread schedule
  // into results. Re-run the approximate configuration with a serial
  // device and insist on byte-identical digests.
  const extsort::ExternalSortReport serial =
      RunConfig(env, input, device_config, budget_bytes, /*use_approx=*/true,
                /*io_threads=*/1);
  const bool replay_match =
      serial.spill_digest == approximate.spill_digest &&
      serial.output_digest == approximate.output_digest;
  std::printf("replay gate: threads=%d vs threads=1 spill %016llx/%016llx "
              "output %016llx/%016llx -> %s\n",
              io_threads,
              static_cast<unsigned long long>(approximate.spill_digest),
              static_cast<unsigned long long>(serial.spill_digest),
              static_cast<unsigned long long>(approximate.output_digest),
              static_cast<unsigned long long>(serial.output_digest),
              replay_match ? "MATCH" : "MISMATCH");

  // Gate 2 — overlap: with more than one run, the double-buffered pipeline
  // must hide I/O under compute (strictly > 1.0 on the virtual timeline; a
  // serial read-sort-write loop scores exactly 1.0).
  const double overlap = approximate.run_formation.OverlapRatio();
  const bool overlap_ok = approximate.initial_runs < 2 || overlap > 1.0;
  if (!overlap_ok) {
    std::fprintf(stderr,
                 "overlap gate: run-formation overlap %.4f <= 1.0 with %zu "
                 "runs — the pipeline stopped overlapping I/O\n",
                 overlap, approximate.initial_runs);
  }

  if (!replay_match) {
    std::fprintf(stderr, "extsort: digest MISMATCH across I/O thread "
                 "counts — determinism contract broken\n");
    return 1;
  }
  if (!overlap_ok) return 1;
  std::printf("extsort: PASS — deterministic digests, overlap %.4f > 1.0, "
              "budget high water %zu/%zu\n",
              overlap, approximate.budget_high_water, budget_bytes);
  return 0;
}

}  // namespace
}  // namespace approxmem

int main(int argc, char** argv) { return approxmem::Main(argc, argv); }
