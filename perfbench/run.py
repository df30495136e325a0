#!/usr/bin/env python3
"""The repository benchmark: builds perfbench from source and runs one workload.

Run from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-check
    python3 perfbench/run.py --pin --seeds 1,2,3

A run builds perfbench/ (Release) into .bench_build/perfbench, checks the
simulator against the pinned fingerprints in perfbench/fingerprints.json,
runs the workload and prints a provenance line, then as its last line one
JSON object with "correct", "attempted", "failed" and "metrics": every
end-to-end metric of BENCHMARK.json with --trace 0, every per-layer metric
with --trace 1. It exits non-zero, naming the workload, on any unverified
output or fingerprint mismatch.

--self-check runs every workload at tiny sizes, traced and untraced, at one
and two worker threads, and asserts that every declared metric is emitted,
that metrics.json and BENCHMARK.json agree, and that the simulated results
do not depend on the thread count. --pin recomputes fingerprints.json.
"""

import argparse
import hashlib
import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "perfbench")
FINGERPRINTS = os.path.join(HERE, "fingerprints.json")
# Seed of the tiny reference run every invocation checks first, so that a
# change to the simulation shows whatever seed the benchmark is run at.
REFERENCE_SEED = 1
RUN_TIMEOUT_S = 150


def fail(message, code=2):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def load_json(path):
    with open(path, encoding="utf-8") as f:
        return json.load(f)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("library sources (src/) not found next to perfbench/")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", jobs])
    for step in steps:
        done = subprocess.run(step, cwd=ROOT, stdout=sys.stderr,
                              stderr=sys.stderr, check=False)
        if done.returncode != 0:
            fail(f"build step failed: {' '.join(step)}")


def perfbench(workload, seed, seconds=0.0, trace=0, threads=2, tiny=False,
              fingerprint_only=False):
    """Runs the binary once and returns its result object."""
    args = [BINARY, f"--workload={workload}", f"--seed={seed}",
            f"--seconds={seconds}", f"--trace={trace}",
            f"--threads={threads}", f"--tiny={int(tiny)}",
            f"--fingerprint_only={int(fingerprint_only)}"]
    try:
        done = subprocess.run(args, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=sys.stderr, text=True, check=False,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{workload}: perfbench did not finish in {RUN_TIMEOUT_S} s", 1)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        fail(f"{workload}: perfbench exited with code {done.returncode}", 1)
    return json.loads(lines[-1])


def pinned(pins, workload, scale, seed):
    return pins.get(workload, {}).get(scale, {}).get(str(seed))


def check_fingerprint(pins, result, scale):
    """Returns an error string when a pinned fingerprint does not match."""
    want = pinned(pins, result["workload"], scale, result["seed"])
    if want is None or want == result["fingerprint"]:
        return None
    return (f"{result['workload']}: {scale} fingerprint at seed "
            f"{result['seed']} is {result['fingerprint']}, pinned {want}; "
            f"the simulated results changed: {json.dumps(result['simulated'])}")


def source_id():
    """The git commit when there is one, else a digest of the sources."""
    if os.path.isdir(os.path.join(ROOT, ".git")):
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, check=False)
        if done.returncode == 0:
            return {"git_sha": done.stdout.strip()}
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return {"git_sha": None, "source_sha256": digest.hexdigest()}


def declared(bench, trace):
    return bench["per_layer"] if trace else bench["end_to_end"]


def missing_metrics(bench, result, trace):
    source = result["per_layer"] if trace else result["end_to_end"]
    bad = []
    for metric in declared(bench, trace):
        value = source.get(metric["name"])
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            bad.append(metric["name"])
        elif not trace and value == 0:
            bad.append(metric["name"] + " (zero)")
    return bad


def run(args):
    bench = load_json(os.path.join(ROOT, "BENCHMARK.json"))
    workloads = [w["name"] for w in bench["workloads"]]
    if args.workload not in workloads:
        fail(f"unknown workload '{args.workload}'; one of {workloads}")
    meta = load_json(os.path.join(HERE, "metrics.json"))
    pins = load_json(FINGERPRINTS)
    build()

    errors = []
    reference = perfbench(args.workload, REFERENCE_SEED, tiny=True,
                          fingerprint_only=True, threads=args.threads)
    if not reference["correct"]:
        errors.append(f"{args.workload}: tiny reference run unverified: "
                      f"{reference['errors']}")
    error = check_fingerprint(pins, reference, "tiny")
    if error:
        errors.append(error)

    result = perfbench(args.workload, args.seed, args.seconds, args.trace,
                       args.threads)
    if not result["correct"]:
        errors.append(f"{args.workload}: unverified output: "
                      f"{result['errors']}")
    error = check_fingerprint(pins, result, "full")
    if error:
        errors.append(error)
    bad = missing_metrics(bench, result, args.trace)
    if bad:
        errors.append(f"{args.workload}: metrics not emitted: {bad}")

    samples = result["samples"]
    provenance = {
        **source_id(),
        "workload": args.workload,
        "seed": args.seed,
        "held_out_seed": meta["workloads"][args.workload]["held_out_seed"],
        "seconds": args.seconds,
        "trace": args.trace,
        "threads": args.threads,
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "build_type": result["build_type"],
        "cxx_flags": result["cxx_flags"].strip(),
        "params": result["params"],
        "repetitions": {"setup": samples["setup_reps"],
                        "rounds": samples["rounds"],
                        "rounds_per_pass": samples["rounds_per_pass"],
                        "jobs": samples["jobs"],
                        "job_runs": samples["job_runs"],
                        "timed_s": samples["timed_s"]},
        "quartiles": {
            "setup_s": [samples["setup_s_q1"], result["end_to_end"]["setup_s"],
                        samples["setup_s_q3"]],
            "round_keys_per_s": [samples["round_keys_per_s_q1"],
                                 samples["round_keys_per_s_median"],
                                 samples["round_keys_per_s_q3"]],
            "job_ms": [samples["job_ms_q1"], result["end_to_end"]["job_p50_ms"],
                       samples["job_ms_q3"]],
        },
        "job_tail": {"percentile": samples["job_tail_percentile"],
                     "samples": samples["jobs"]},
        "vlatency_tail": {"percentile": samples["vlatency_tail_percentile"],
                          "samples": samples["vlatency_samples"]},
        "fingerprint": result["fingerprint"],
        "fingerprint_pinned": pinned(pins, args.workload, "full",
                                     args.seed) is not None,
        "simulated": result["simulated"],
        "ops_failed_frac": result["failed"] / max(1, result["attempted"]),
        "errors": errors,
    }
    print(json.dumps({"provenance": provenance}))

    source = result["per_layer"] if args.trace else result["end_to_end"]
    metrics = {}
    for metric in declared(bench, args.trace):
        if metric["name"] in source:
            metrics[metric["name"]] = {"value": source[metric["name"]],
                                       "unit": metric["unit"]}
    print(json.dumps({"correct": not errors,
                      "attempted": result["attempted"],
                      "failed": result["failed"],
                      "metrics": metrics}))
    for error in errors:
        print(f"perfbench: {error}", file=sys.stderr)
    return 1 if errors else 0


def self_check():
    bench = load_json(os.path.join(ROOT, "BENCHMARK.json"))
    meta = load_json(os.path.join(HERE, "metrics.json"))
    pins = load_json(FINGERPRINTS)
    problems = []
    for section in ("end_to_end", "per_layer"):
        names = [m["name"] for m in bench[section]]
        if sorted(names) != sorted(meta[section]):
            problems.append(f"{section}: BENCHMARK.json and metrics.json "
                            f"name different metrics")
        for metric in bench[section]:
            info = meta[section].get(metric["name"], {})
            for key in ("unit", "better"):
                if info.get(key) != metric[key]:
                    problems.append(f"{metric['name']}: {key} differs")
            if info.get("kind") not in ("host", "simulated", "count"):
                problems.append(f"{metric['name']}: no kind")
            if section == "per_layer" and not info.get("moves"):
                problems.append(f"{metric['name']}: no end-to-end target")
    build()
    for workload in [w["name"] for w in bench["workloads"]]:
        fingerprints = set()
        for trace, threads in ((0, 2), (1, 2), (0, 1)):
            result = perfbench(workload, REFERENCE_SEED, seconds=0.2,
                               trace=trace, threads=threads, tiny=True)
            fingerprints.add(result["fingerprint"])
            label = f"{workload} trace={trace} threads={threads}"
            if not result["correct"]:
                problems.append(f"{label}: unverified: {result['errors']}")
            bad = missing_metrics(bench, result, trace)
            if bad:
                problems.append(f"{label}: metrics not emitted: {bad}")
            error = check_fingerprint(pins, result, "tiny")
            if error:
                problems.append(error)
        if len(fingerprints) != 1:
            problems.append(f"{workload}: simulated results depend on the "
                            f"thread count or on tracing: {fingerprints}")
        print(f"self-check {workload}: {sorted(fingerprints)}")
    for problem in problems:
        print(f"perfbench: {problem}", file=sys.stderr)
    print("self-check " + ("FAILED" if problems else "passed"))
    return 1 if problems else 0


def pin(seeds):
    """Rewrites fingerprints.json with the current simulated results."""
    bench = load_json(os.path.join(ROOT, "BENCHMARK.json"))
    build()
    pins = {}
    for workload in [w["name"] for w in bench["workloads"]]:
        tiny = perfbench(workload, REFERENCE_SEED, tiny=True,
                         fingerprint_only=True)
        pins[workload] = {"tiny": {str(REFERENCE_SEED): tiny["fingerprint"]},
                          "full": {}}
        for seed in seeds:
            full = perfbench(workload, seed, fingerprint_only=True)
            if not full["correct"]:
                fail(f"{workload} seed {seed}: unverified: {full['errors']}", 1)
            pins[workload]["full"][str(seed)] = full["fingerprint"]
            print(f"{workload} seed {seed}: {full['fingerprint']}")
    with open(FINGERPRINTS, "w", encoding="utf-8") as f:
        json.dump(pins, f, indent=2, sort_keys=True)
        f.write("\n")
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--threads", type=int, choices=(1, 2), default=2)
    parser.add_argument("--self-check", action="store_true")
    parser.add_argument("--pin", action="store_true")
    parser.add_argument("--seeds", default="",
                        help="comma-separated full-scale seeds for --pin")
    args = parser.parse_args()
    if args.self_check:
        return self_check()
    if args.pin:
        return pin([int(s) for s in args.seeds.split(",") if s])
    if not args.workload:
        parser.error("--workload is required")
    if args.seed < 0 or args.seconds < 0:
        parser.error("--seed and --seconds must not be negative")
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
