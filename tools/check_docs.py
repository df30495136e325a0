#!/usr/bin/env python3
"""Verify that the docs only cite things that exist.

Usage: tools/check_docs.py [--cli build/tools/approxmem_cli] [--root .]

Scans README.md, DESIGN.md, EXPERIMENTS.md, and TESTING.md for

  * repo paths — `src/...`, `tests/...`, `tools/...`, `bench/...`,
    `perfbench/...` tokens — and fails if the path is not in the tree (so a refactor that moves a
    file without updating its doc references breaks CI, not a reader), and
  * CLI flags — `--flag` tokens in approxmem_cli command lines — and fails
    if the flag is not in the CLI's --help text (the stale-flag sweep that
    used to be a manual EXPERIMENTS.md chore), and
  * bench binaries — `bench_<name>` tokens, including `build/bench/...`
    paths — and fails if the name is not a target in bench/CMakeLists.txt
    (so a doc cannot name a deleted or renamed bench).

Path tokens may carry a :line suffix or glob-ish tails ("src/sort/*"); the
directory part is what must exist. Flags checked only in lines that invoke
approxmem_cli, because bench binaries share the parser but add their own
flags; bench-only flags are matched against an allowlist harvested from
the bench/*.cc sources (bench/bench_lib.cc parses the shared ones).

Exit 0 when everything resolves; 1 with a per-reference report otherwise.
"""

import argparse
import os
import re
import subprocess
import sys

DOC_FILES = ["README.md", "DESIGN.md", "EXPERIMENTS.md", "TESTING.md"]

#: `dir/stem.ext` tokens rooted at a tracked top-level directory. The
#: lookbehind keeps `build/tools/...` binary paths from matching as a
#: `tools/...` source reference.
PATH_RE = re.compile(
    r"(?<!build/)\b((?:src|tests|tools|bench|perfbench|scripts|\.github)"
    r"/[\w./\-*]+)")

#: `bench_<name>` binary tokens. A leading "." (`.bench_build/`), a trailing
#: "/" (directories such as `bench_artifacts/`) or a `.cc`/`.h` suffix
#: (source paths, which PATH_RE checks) marks something else.
BENCH_RE = re.compile(r"(?<![\w.])(bench_\w+)(?![\w/]|\.(?:cc|h)\b)")

#: --flag tokens (value part ignored).
FLAG_RE = re.compile(r"(--[a-z][a-z0-9_]*)")

#: Lines whose flags are validated against the CLI's --help.
CLI_LINE_RE = re.compile(r"approxmem_cli")


def repo_paths(root):
    tracked = set()
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames[:] = [d for d in dirnames
                       if d not in {"build", ".bench_build", ".git", "__pycache__"}]
        rel = os.path.relpath(dirpath, root)
        if rel != ".":
            tracked.add(rel)
        for name in filenames:
            tracked.add(os.path.join(rel, name) if rel != "." else name)
    return tracked


def cli_flags(cli):
    if cli is None:
        return None
    try:
        out = subprocess.run([cli, "--help"], capture_output=True, text=True,
                             timeout=60)
    except (OSError, subprocess.TimeoutExpired) as error:
        print(f"error: cannot run {cli} --help: {error}", file=sys.stderr)
        return None
    return set(FLAG_RE.findall(out.stdout + out.stderr))


def bench_targets(root):
    """Bench executables declared in bench/CMakeLists.txt."""
    with open(os.path.join(root, "bench", "CMakeLists.txt")) as f:
        text = f.read()
    listed = re.search(r"set\(APPROXMEM_BENCHES([^)]*)\)", text)
    targets = set(listed.group(1).split()) if listed else set()
    targets.update(re.findall(r"add_executable\((bench_\w+)", text))
    return targets


def bench_flags(root):
    """Flags the bench harness adds on top of the CLI parser."""
    flags = set()
    for name in os.listdir(os.path.join(root, "bench")):
        if name.endswith(".cc"):
            with open(os.path.join(root, "bench", name)) as f:
                flags.update(FLAG_RE.findall(f.read()))
    return flags


def check_file(path, tracked, targets, known_cli, known_bench, root):
    failures = []
    with open(path) as f:
        lines = f.read().splitlines()
    for lineno, line in enumerate(lines, start=1):
        for name in BENCH_RE.findall(line):
            if name not in targets:
                failures.append(
                    f"{os.path.relpath(path, root)}:{lineno}: "
                    f"bench `{name}` is not a bench/CMakeLists.txt target")
        for token in PATH_RE.findall(line):
            candidate = token.rstrip(".,:;)")
            candidate = candidate.split(":")[0]
            if "*" in candidate:
                candidate = candidate[:candidate.index("*")]
            candidate = candidate.rstrip("/")
            if not candidate or candidate in tracked:
                continue
            # `src/x/thing` cites `thing.{h,cc}` or a directory prefix.
            if any(p.startswith(candidate + ".") or
                   p.startswith(candidate + "/") for p in tracked):
                continue
            failures.append(
                f"{os.path.relpath(path, root)}:{lineno}: "
                f"path `{token}` not in the tree")
        if known_cli is not None and CLI_LINE_RE.search(line):
            for flag in FLAG_RE.findall(line):
                if flag in known_cli or flag in known_bench:
                    continue
                failures.append(
                    f"{os.path.relpath(path, root)}:{lineno}: "
                    f"flag `{flag}` not in approxmem_cli --help")
    return failures


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--root", default=".",
                        help="repo root (default: cwd)")
    parser.add_argument("--cli", default=None,
                        help="approxmem_cli binary; omit to skip flag checks")
    args = parser.parse_args()

    tracked = repo_paths(args.root)
    known_cli = cli_flags(args.cli)
    if args.cli is not None and known_cli is None:
        return 1
    known_bench = bench_flags(args.root)
    targets = bench_targets(args.root)

    failures = []
    checked = 0
    for name in DOC_FILES:
        path = os.path.join(args.root, name)
        if not os.path.exists(path):
            continue
        checked += 1
        failures.extend(
            check_file(path, tracked, targets, known_cli, known_bench,
                       args.root))

    if failures:
        print(f"{len(failures)} stale doc reference(s):")
        for failure in failures:
            print(f"  {failure}")
        return 1
    mode = "paths+flags" if known_cli is not None else "paths only"
    print(f"check_docs: {checked} docs clean ({mode})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
