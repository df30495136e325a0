// perfbench: runs one benchmark workload and prints one JSON object as the
// last line of standard output. run.py builds this binary, adds provenance,
// checks the fingerprint against the pinned values and reshapes the object
// into the benchmark's result line.
//
//   perfbench --workload=NAME --seed=N [--seconds=S] [--trace=0|1]
//             [--threads=T] [--tiny=0|1] [--fingerprint_only=0|1]
//
// Exit codes: 0 on a result (check "correct"), 2 on bad arguments, 3 when
// the build is not an optimised, sanitizer-free Release build.
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "common/flags.h"
#include "perfbench.h"

namespace perfbench {

uint64_t Mix(uint64_t seed, uint64_t index) {
  uint64_t z = seed ^ (index + 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

void Digest::Add(const void* data, size_t bytes) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < bytes; ++i) {
    state_ ^= p[i];
    state_ *= 0x100000001b3ULL;
  }
}

void Digest::AddStats(const approxmem::approx::MemoryStats& stats) {
  AddU64(stats.word_reads);
  AddU64(stats.word_writes);
  AddDouble(stats.write_cost);
  AddDouble(stats.read_cost);
  AddU64(stats.corrupted_writes);
  AddU64(stats.sequential_writes);
  AddDouble(stats.pv_iterations);
  AddU64(stats.degraded_regions);
}

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (values[hi] - values[lo]) * (pos - std::floor(pos));
}

Tail TailOf(const std::vector<double>& values) {
  Tail tail;
  tail.samples = values.size();
  if (values.empty()) return tail;
  std::vector<double> sorted = values;
  std::sort(sorted.begin(), sorted.end());
  if (sorted.size() < 20) {
    tail.value = sorted.back();
    return tail;
  }
  // The sample with exactly ten samples above it, as a percentile (at
  // least the median from twenty samples on).
  const size_t index = sorted.size() - 11;
  tail.value = sorted[index];
  tail.percentile =
      100.0 * static_cast<double>(index + 1) / static_cast<double>(sorted.size());
  return tail;
}

namespace {

bool ReleaseBuild(std::string* why) {
  const std::string build_type = PERFBENCH_BUILD_TYPE;
  if (build_type != "Release") {
    *why = "build type is '" + build_type + "', not Release";
    return false;
  }
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  *why = "sanitizer build";
  return false;
#endif
#if defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) || \
    __has_feature(memory_sanitizer)
  *why = "sanitizer build";
  return false;
#endif
#endif
#ifndef NDEBUG
  *why = "assertions enabled (NDEBUG unset)";
  return false;
#endif
  return true;
}

double PeakRssMiB() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // kB on Linux
}

std::string JsonString(const std::string& text) {
  std::string out = "\"";
  for (const char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string JsonNumber(double value) {
  if (!std::isfinite(value)) return "null";
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  return buffer;
}

template <typename Map, typename Fmt>
std::string JsonObject(const Map& map, Fmt fmt) {
  std::string out = "{";
  bool first = true;
  for (const auto& [key, value] : map) {
    if (!first) out += ", ";
    first = false;
    out += JsonString(key) + ": " + fmt(value);
  }
  return out + "}";
}

int Run(const Config& config) {
  std::unique_ptr<Workload> workload = MakeWorkload(config);
  if (workload == nullptr) {
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n",
                 config.workload.c_str());
    return 2;
  }
  Result result;

  // Set-up is repeated and reported as a median so that work moved into
  // set-up shows; the state of the last set-up is the one measured.
  const int setup_reps = config.fingerprint_only ? 1 : 9;
  std::vector<double> calibrate_s;
  std::vector<double> engine_init_s;
  for (int r = 0; r < setup_reps; ++r) {
    const Clock::time_point start = Clock::now();
    workload->Setup();
    result.setup_s.push_back(SecondsSince(start));
    calibrate_s.insert(calibrate_s.end(), workload->calibrate_s().begin(),
                       workload->calibrate_s().end());
    engine_init_s.push_back(workload->engine_init_s());
  }
  result.params = workload->Params();

  // The first pass runs every round once and fixes the simulated results;
  // an untraced run then repeats rounds until the deadline.
  const Clock::time_point deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(config.seconds));
  const size_t rounds = workload->Rounds();
  for (size_t r = 0; r < rounds; ++r) {
    workload->RunRound(r, /*first=*/true, &result);
  }
  // Memory is measured after the first pass: later rounds only repeat it.
  const double peak_rss_mb = PeakRssMiB();
  size_t rounds_run = rounds;
  if (!config.fingerprint_only && !config.trace) {
    for (; Clock::now() < deadline; ++rounds_run) {
      workload->RunRound(rounds_run % rounds, /*first=*/false, &result);
    }
  }

  const double ratio = result.WriteCostRatio();
  result.fingerprint.AddDouble(ratio);
  result.fingerprint.AddDouble(result.sim_time_s);
  result.fingerprint.AddStats(result.approx_stats);
  // A job's host time is the mean of its runs; the job metrics are over
  // jobs, so every job of the pass weighs the same however often it ran.
  // Means, not medians, of runs and rounds: on a shared host the speed of
  // memory-bound work wanders by tens of percent from one round to the
  // next, and a mean uses every round to average that out.
  std::vector<double> job_ms;
  size_t job_runs = 0;
  for (const std::vector<double>& runs : result.job_ms) {
    if (runs.empty()) continue;
    job_ms.push_back(Mean(runs));
    job_runs += runs.size();
  }
  const Tail job_tail = TailOf(job_ms);
  const Tail vlatency_tail = TailOf(result.vlatency_us);
  double timed_s = 0.0;
  double timed_keys = 0.0;
  double timed_jobs = 0.0;
  std::vector<double> keys_rate;
  for (size_t i = 0; i < result.round_s.size(); ++i) {
    timed_s += result.round_s[i];
    timed_keys += result.round_keys[i];
    timed_jobs += result.round_jobs[i];
    keys_rate.push_back(result.round_keys[i] / result.round_s[i]);
  }

  std::map<std::string, double> end_to_end;
  end_to_end["setup_s"] = Median(result.setup_s);
  end_to_end["keys_per_s"] = timed_s > 0 ? timed_keys / timed_s : 0.0;
  end_to_end["jobs_per_s"] = timed_s > 0 ? timed_jobs / timed_s : 0.0;
  end_to_end["job_p50_ms"] = Median(job_ms);
  end_to_end["job_tail_ms"] = job_tail.value;
  end_to_end["write_cost_ratio"] = ratio;
  end_to_end["sim_time_s"] = result.sim_time_s;
  end_to_end["vlatency_p50_us"] = Median(result.vlatency_us);
  end_to_end["vlatency_tail_us"] = vlatency_tail.value;

  if (config.trace) {
    auto& layers = result.layers;
    const double accesses =
        static_cast<double>(result.approx_stats.word_reads +
                            result.approx_stats.word_writes +
                            result.baseline_accesses);
    layers["approx.host_ns_per_access"] =
        accesses > 0 ? timed_s * 1e9 / accesses : 0.0;
    layers["approx.word_writes"] =
        static_cast<double>(result.approx_stats.word_writes);
    layers["approx.word_reads"] =
        static_cast<double>(result.approx_stats.word_reads);
    layers["approx.pv_iterations"] = result.approx_stats.pv_iterations;
    layers["approx.corrupted_writes"] =
        static_cast<double>(result.approx_stats.corrupted_writes);
    layers["mlc.calibrate_s"] = Median(calibrate_s);
    layers["core.engine_init_s"] = Median(engine_init_s);
    workload->TracePass(&result);
    const double traced = layers["trace.keys_per_s"];
    layers.erase("trace.keys_per_s");
    layers["trace.overhead_frac"] =
        traced > 0 ? end_to_end["keys_per_s"] / traced - 1.0 : 0.0;
    RunLayerProbes(config, ProbeSortN(config), &result);
  }
  end_to_end["peak_rss_mb"] = peak_rss_mb;

  const bool correct = result.failed == 0 && !job_ms.empty();
  const std::map<std::string, double> samples = {
      {"rounds", static_cast<double>(rounds_run)},
      {"rounds_per_pass", static_cast<double>(rounds)},
      {"setup_reps", static_cast<double>(setup_reps)},
      {"setup_s_q1", Quantile(result.setup_s, 0.25)},
      {"setup_s_q3", Quantile(result.setup_s, 0.75)},
      {"round_keys_per_s_q1", Quantile(keys_rate, 0.25)},
      {"round_keys_per_s_median", Median(keys_rate)},
      {"round_keys_per_s_q3", Quantile(keys_rate, 0.75)},
      {"timed_s", timed_s},
      {"jobs", static_cast<double>(job_ms.size())},
      {"job_runs", static_cast<double>(job_runs)},
      {"job_ms_q1", Quantile(job_ms, 0.25)},
      {"job_ms_q3", Quantile(job_ms, 0.75)},
      {"job_tail_percentile", job_tail.percentile},
      {"vlatency_samples", static_cast<double>(vlatency_tail.samples)},
      {"vlatency_tail_percentile", vlatency_tail.percentile},
  };
  const std::map<std::string, double> simulated = {
      {"write_reduction", 1.0 - ratio},
      {"write_cost_ratio", ratio},
      {"sim_time_s", result.sim_time_s},
      {"word_reads", static_cast<double>(result.approx_stats.word_reads)},
      {"word_writes", static_cast<double>(result.approx_stats.word_writes)},
      {"corrupted_writes",
       static_cast<double>(result.approx_stats.corrupted_writes)},
      {"pv_iterations", result.approx_stats.pv_iterations},
  };
  char fingerprint[32];
  std::snprintf(fingerprint, sizeof(fingerprint), "%016llx",
                static_cast<unsigned long long>(result.fingerprint.value()));

  std::string errors = "[";
  for (size_t i = 0; i < result.errors.size(); ++i) {
    if (i > 0) errors += ", ";
    errors += JsonString(result.errors[i]);
  }
  errors += "]";
  for (const std::string& error : result.errors) {
    std::fprintf(stderr, "perfbench: %s\n", error.c_str());
  }

  std::printf(
      "{\"workload\": %s, \"seed\": %llu, \"threads\": %d, \"tiny\": %s, "
      "\"build_type\": %s, \"cxx_flags\": %s, \"correct\": %s, "
      "\"attempted\": %llu, \"failed\": %llu, \"errors\": %s, "
      "\"fingerprint\": \"%s\", \"simulated\": %s, \"end_to_end\": %s, "
      "\"per_layer\": %s, \"samples\": %s, \"params\": %s}\n",
      JsonString(config.workload).c_str(),
      static_cast<unsigned long long>(config.seed), config.threads,
      config.tiny ? "true" : "false", JsonString(PERFBENCH_BUILD_TYPE).c_str(),
      JsonString(PERFBENCH_CXX_FLAGS).c_str(), correct ? "true" : "false",
      static_cast<unsigned long long>(result.attempted),
      static_cast<unsigned long long>(result.failed), errors.c_str(),
      fingerprint, JsonObject(simulated, JsonNumber).c_str(),
      JsonObject(end_to_end, JsonNumber).c_str(),
      JsonObject(result.layers, JsonNumber).c_str(),
      JsonObject(samples, JsonNumber).c_str(),
      JsonObject(result.params, JsonString).c_str());
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  auto flags = approxmem::Flags::Parse(argc, argv);
  if (!flags.ok()) {
    std::fprintf(stderr, "perfbench: %s\n", flags.status().ToString().c_str());
    return 2;
  }
  std::string why;
  if (!perfbench::ReleaseBuild(&why)) {
    std::fprintf(stderr, "perfbench: refusing to report: %s\n", why.c_str());
    return 3;
  }
  perfbench::Config config;
  config.workload = flags->GetString("workload", "");
  config.seed = static_cast<uint64_t>(flags->GetInt("seed", 1));
  config.seconds = flags->GetDouble("seconds", 10.0);
  config.trace = flags->GetBool("trace", false);
  config.threads = static_cast<int>(flags->GetInt("threads", 2));
  config.tiny = flags->GetBool("tiny", false);
  config.fingerprint_only = flags->GetBool("fingerprint_only", false);
  if (config.threads < 1 || config.threads > 64 || config.seconds < 0) {
    std::fprintf(stderr, "perfbench: bad --threads or --seconds\n");
    return 2;
  }
  return perfbench::Run(config);
}
