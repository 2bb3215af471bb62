#!/usr/bin/env python3
"""Builds and runs the LSD serving benchmark (lsd_bench).

Run from the root of a checkout:

    python3 lsdbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The first run configures and builds lsdbench/ (which compiles the repo's
src/ libraries) into .bench_build/; later runs only rebuild what changed.
Build output goes to stderr. stdout is the benchmark's own: a summary, a
run record, and as its last line the result object. With --trace 1 the
spans are also written to .bench_build/traces/<workload>-seed<N>.json.

    python3 lsdbench/run.py --quick [--binary PATH]

runs every workload for 2 s in both modes, checks the answers, and
validates the output against BENCHMARK.json (the lsd_bench_quick test).
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
BUILD_DIR = os.path.join(ROOT, ".bench_build")
# A single run must finish well inside three minutes.
RUN_TIMEOUT_S = 170


def fail(message, code=2):
    print("run.py: " + message, file=sys.stderr)
    sys.exit(code)


def build():
    """Configures (once) and builds lsd_bench; returns the binary's path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no LSD sources next to the benchmark (expected src/ at %s)" % ROOT)
    if shutil.which("cmake") is None:
        fail("cmake is not on PATH")
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        configure = ["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
                     "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            fail("cmake configure failed")
    jobs = str(max(1, len(os.sched_getaffinity(0))))
    command = ["cmake", "--build", BUILD_DIR, "--target", "lsd_bench",
               "-j", jobs]
    if subprocess.run(command, stdout=sys.stderr).returncode != 0:
        fail("build failed")
    return os.path.join(BUILD_DIR, "lsd_bench")


def git_commit():
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def run_bench(binary, workload, seed, seconds, trace, extra=()):
    """Runs one benchmark process; returns (exit code, stdout text)."""
    command = [binary, "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", "1" if trace else "0",
               "--git-commit", git_commit()] + list(extra)
    try:
        done = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("%s did not finish within %d s" % (workload, RUN_TIMEOUT_S), 1)
    return done.returncode, done.stdout


def quick(binary):
    import compare_runs

    spec = compare_runs.load_spec()
    problems = []
    for workload in [w["name"] for w in spec["workloads"]]:
        for trace in (False, True):
            code, out = run_bench(binary, workload, 1, 2, trace, ["--quick"])
            sys.stdout.write(out)
            if code != 0:
                problems.append("%s (trace %d) exited %d" %
                                (workload, trace, code))
                continue
            problems += compare_runs.validate_text(out, spec, workload)
    for problem in problems:
        print("problem: " + problem)
    print("lsd_bench_quick: %s" % ("FAILED" if problems else "ok"))
    return 1 if problems else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", choices=["0", "1"])
    parser.add_argument("--quick", action="store_true")
    parser.add_argument("--binary", help="a built lsd_bench; skips the build")
    args = parser.parse_args()

    if args.quick:
        sys.exit(quick(args.binary or build()))
    if args.workload is None or args.seed is None or args.seconds is None \
            or args.trace is None:
        fail("--workload, --seed, --seconds and --trace are required")
    if args.seed < 0 or not 0 < args.seconds <= 60:
        fail("--seed must be >= 0 and --seconds in (0, 60]")
    binary = args.binary or build()
    extra = []
    if args.trace == "1":
        traces = os.path.join(BUILD_DIR, "traces")
        os.makedirs(traces, exist_ok=True)
        extra = ["--trace-out", os.path.join(
            traces, "%s-seed%d.json" % (args.workload, args.seed))]
    code, out = run_bench(binary, args.workload, args.seed,
                          "%g" % args.seconds, args.trace == "1", extra)
    sys.stdout.write(out)
    sys.stdout.flush()
    sys.exit(code)


if __name__ == "__main__":
    main()
