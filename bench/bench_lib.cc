#include "bench/bench_lib.h"

#include <filesystem>
#include <memory>
#include <system_error>

#include "common/hash.h"
#include "common/thread_pool.h"
#include "mlc/calibration.h"

namespace approxmem::bench {
namespace {

// Process-wide sweep runtime: one thread pool and one shared calibration
// cache, parameterized by the first BenchEnv seen (a process's BenchEnvs
// differ only in n and backend, which it does not read). Destroyed at
// normal process exit, which is when the --calibration_cache file is saved.
struct Runtime {
  explicit Runtime(const BenchEnv& env)
      : calibration_path(env.calibration_cache), pool(env.threads) {
    if (env.sort_threads != 1) {
      sort_pool = std::make_unique<ThreadPool>(env.sort_threads);
    }
    core::EngineOptions defaults;
    calibration = std::make_shared<mlc::CalibrationCache>(
        defaults.mlc.WithT(defaults.mlc.precise_t_width),
        static_cast<uint64_t>(
            env.flags.GetInt("calibration_trials",
                             static_cast<int64_t>(defaults.calibration_trials))),
        env.seed ^ 0xca11b7a7e5eedULL, &pool);
    if (!calibration_path.empty()) {
      const StatusOr<size_t> loaded =
          calibration->LoadFromFile(calibration_path);
      if (loaded.ok()) {
        std::fprintf(stderr, "# calibration cache: loaded %zu entries from %s\n",
                     *loaded, calibration_path.c_str());
      }
    }
  }

  ~Runtime() {
    if (!calibration_path.empty()) {
      if (!calibration->SaveToFile(calibration_path)) {
        std::fprintf(stderr, "# calibration cache: failed to save %s\n",
                     calibration_path.c_str());
      }
    }
  }

  std::string calibration_path;
  ThreadPool pool;
  std::shared_ptr<mlc::CalibrationCache> calibration;
  /// Shared intra-sort pool (created only when --sort_threads != 1). Sweep
  /// workers calling into it run inline (nested ParallelFor), so the two
  /// pools never oversubscribe.
  std::unique_ptr<ThreadPool> sort_pool;
};

Runtime& GetRuntime(const BenchEnv& env) {
  static Runtime runtime(env);
  return runtime;
}

core::EngineOptions CellOptions(const BenchEnv& env, uint64_t seed) {
  Runtime& runtime = GetRuntime(env);
  core::EngineOptions options;
  options.backend = env.backend;
  options.seed = seed;
  options.calibration_trials = static_cast<uint64_t>(
      env.flags.GetInt("calibration_trials", 200000));
  options.shared_calibration = runtime.calibration;
  options.sort_threads = env.sort_threads;
  options.sort_pool = runtime.sort_pool.get();
  return options;
}

uint64_t CellSeed(uint64_t seed, size_t row, size_t col) {
  // 1-based row so cell (0, 0) still perturbs the base seed.
  return seed ^ Mix64((static_cast<uint64_t>(row) + 1) * 0x100000001b3ULL +
                      static_cast<uint64_t>(col) + kSplitMix64Gamma);
}

}  // namespace

Flags ParseBenchFlags(int argc, char** argv, std::string_view usage) {
  StatusOr<Flags> flags = Flags::Parse(argc, argv);
  const Status status = !flags.ok()     ? flags.status()
                        : usage.empty() ? Status::Ok()
                                        : flags->CheckListedIn(usage);
  if (!status.ok()) {
    std::fprintf(stderr, "%s\n%.*s", status.ToString().c_str(),
                 static_cast<int>(usage.size()), usage.data());
    std::exit(2);
  }
  return std::move(flags).value();
}

BenchEnv ResolveBenchEnv(const Flags& flags, size_t default_n,
                         std::string_view default_backend) {
  BenchEnv env;
  env.flags = flags;
  env.full = flags.GetBool("full", false);
  const size_t base = env.full ? kPaperN : default_n;
  env.n = static_cast<size_t>(flags.GetInt(
      "n", static_cast<int64_t>(Flags::EnvSize("APPROX_BENCH_N", base))));
  env.seed = static_cast<uint64_t>(flags.GetInt("seed", 42));
  env.threads = static_cast<int>(flags.GetInt("threads", 0));
  env.sort_threads = static_cast<int>(flags.GetInt("sort_threads", 1));
  env.csv_dir = flags.GetString("csv_dir", "bench_artifacts");
  env.calibration_cache = flags.GetString("calibration_cache", "");
  env.backend = flags.GetString("backend", std::string(default_backend));
  if (!approx::IsRegisteredBackend(env.backend)) {
    std::fprintf(stderr, "unknown --backend=%s; registered:",
                 env.backend.c_str());
    for (const std::string& name : approx::RegisteredBackendNames()) {
      std::fprintf(stderr, " %s", name.c_str());
    }
    std::fprintf(stderr, "\n");
    std::exit(2);
  }
  return env;
}

core::ApproxSortEngine MakeEngine(const BenchEnv& env) {
  return core::ApproxSortEngine(CellOptions(env, env.seed));
}

core::EngineOptions MakeEngineOptions(const BenchEnv& env) {
  return CellOptions(env, env.seed);
}

core::ApproxSortEngine MakeCellEngine(const BenchEnv& env, size_t row,
                                      size_t col) {
  return core::ApproxSortEngine(
      CellOptions(env, CellSeed(env.seed, row, col)));
}

void ParallelSweep(const BenchEnv& env, size_t rows, size_t cols,
                   const std::function<void(size_t, size_t)>& fn) {
  if (rows == 0 || cols == 0) return;
  GetRuntime(env).pool.ParallelFor(
      0, rows * cols, [&](size_t cell) { fn(cell / cols, cell % cols); });
}

std::string CsvPath(const BenchEnv& env, const std::string& file) {
  std::error_code error;
  std::filesystem::create_directories(env.csv_dir, error);
  if (error) {
    std::fprintf(stderr, "cannot create --csv_dir=%s: %s\n",
                 env.csv_dir.c_str(), error.message().c_str());
    std::exit(1);
  }
  return env.csv_dir + "/" + file;
}

void Require(bool ok, const std::string& failure) {
  if (ok) return;
  std::fprintf(stderr, "%s\n", failure.c_str());
  std::exit(1);
}

void WriteCsv(const BenchEnv& env, const TablePrinter& table,
              const std::string& file) {
  const std::string path = CsvPath(env, file);
  Require(table.WriteCsv(path), "cannot write " + path);
}

std::string HexDigest(uint64_t digest) {
  char text[17];
  std::snprintf(text, sizeof(text), "%016llx",
                static_cast<unsigned long long>(digest));
  return text;
}

void PrintRunHeader(const char* what, const BenchEnv& env) {
  std::printf("# %s | n=%zu seed=%llu threads=%d sort_threads=%d "
              "backend=%s%s\n",
              what, env.n, static_cast<unsigned long long>(env.seed),
              GetRuntime(env).pool.thread_count(), env.sort_threads,
              env.backend.c_str(), env.full ? " (paper scale)" : "");
  std::printf(
      "# Shapes should match the paper; absolute values depend on the "
      "simulated substrate. Run with --full for the paper's n=16M.\n");
}

}  // namespace approxmem::bench
