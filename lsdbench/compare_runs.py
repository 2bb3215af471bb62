#!/usr/bin/env python3
"""Validates and compares lsd_bench runs. Standard library only.

A run file is the stdout of one run (run.py or lsd_bench): its last line
is the result object and the line before it the run record.

    compare_runs.py --validate RUN...
        Checks each run against BENCHMARK.json: the result keys, every
        named metric present with its unit, and the percentile sample
        rule (a p99 needs >= 1000 samples, a p90 >= 100).

    compare_runs.py BASE... --vs CHANGE... [--claim WORKLOAD:METRIC]...
        For each workload and metric prints both sides' median and
        quartiles and a verdict against the metric's bound. A metric is
        "unresolved" when either side's spread (quartile distance over
        median) is wider than its bound, unless every change run beats
        every base run. A claimed metric must win at least 9 of 10 pairs
        (runs paired by seed, at least 10 pairs) and move by more than the
        base runs' quartile distance. Exits 1 on a regression or an unmet
        claim.

    compare_runs.py --overhead RUN...
        The tracing overhead per workload: each traced run's net.call_ms
        (its mean latency) against the latency_mean_ms of the untraced run
        with the same workload and seed, with the median and quartiles over
        the seed pairs.

RUN, BASE and CHANGE are files or directories of *.txt run files.
"""

import argparse
import json
import math
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}
HOST_KEYS = {"nproc", "hardware_concurrency", "build_type", "compiler",
             "git_commit", "seed"}
# Percentile suffix -> samples needed for ten to lie beyond it.
SAMPLE_RULE = {"_p99_": 1000, "_p90_": 100}
# Which sample count backs a percentile metric.
SAMPLE_SOURCE = {"latency_": "latency", "service.queue_wait_": "queue_wait"}


def load_spec(path=None):
    with open(path or os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def parse_run(text):
    """Returns (record, result); record is None when absent."""
    lines = [line for line in text.splitlines() if line.strip()]
    if not lines:
        raise ValueError("empty run output")
    result = json.loads(lines[-1])
    record = None
    if len(lines) > 1 and lines[-2].startswith("{"):
        record = json.loads(lines[-2])
    return record, result


def expected_metrics(spec, traced):
    return {m["name"]: m for m in spec["per_layer" if traced else "end_to_end"]}


def validate_text(text, spec, workload=None):
    """Problems found in one run's output; empty when it is valid."""
    try:
        record, result = parse_run(text)
    except (ValueError, json.JSONDecodeError) as error:
        return ["unparseable run output: %s" % error]
    if record is None:
        return ["no run record before the result line"]
    name = record.get("workload", {}).get("name", "?")
    where = "%s (trace %s)" % (name, record["workload"].get("trace"))
    problems = []
    if workload is not None and name != workload:
        problems.append("%s: expected workload %s" % (where, workload))
    if set(record.get("host", {})) != HOST_KEYS:
        problems.append("%s: host block keys %s" %
                        (where, sorted(record.get("host", {}))))
    if set(result) != RESULT_KEYS:
        problems.append("%s: result keys %s" % (where, sorted(result)))
        return problems
    if result["correct"] is not True:
        problems.append("%s: correct is not true" % where)
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        problems.append("%s: attempted must be a whole number >= 1" % where)
    if not isinstance(result["failed"], int) or result["failed"] < 0:
        problems.append("%s: failed must be a whole number >= 0" % where)
    traced = bool(record["workload"].get("trace"))
    expected = expected_metrics(spec, traced)
    got = result["metrics"]
    for missing in sorted(set(expected) - set(got)):
        problems.append("%s: metric %s missing" % (where, missing))
    for extra in sorted(set(got) - set(expected)):
        problems.append("%s: metric %s not in BENCHMARK.json" % (where, extra))
    samples = record.get("samples", {})
    for metric, entry in got.items():
        if metric not in expected:
            continue
        value = entry.get("value")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            problems.append("%s: %s is not a finite number" % (where, metric))
        elif not traced and value == 0:
            problems.append("%s: end-to-end metric %s is 0" % (where, metric))
        if entry.get("unit") != expected[metric]["unit"]:
            problems.append("%s: %s unit %r, BENCHMARK.json says %r" %
                            (where, metric, entry.get("unit"),
                             expected[metric]["unit"]))
        if record["workload"].get("quick"):
            continue  # 2 s smoke runs are too short for tail percentiles
        for suffix, needed in SAMPLE_RULE.items():
            if suffix not in metric + "_":
                continue
            source = next((s for p, s in SAMPLE_SOURCE.items()
                           if metric.startswith(p)), "latency")
            if samples.get(source, 0) < needed:
                problems.append("%s: %s rests on %s samples, needs %d" %
                                (where, metric, samples.get(source), needed))
    return problems


def run_files(paths):
    files = []
    for path in paths:
        if os.path.isdir(path):
            files += sorted(os.path.join(path, f) for f in os.listdir(path)
                            if f.endswith(".txt"))
        else:
            files.append(path)
    return files


def load_runs(paths):
    """{(workload, traced): [(seed, metrics), ...]} from run files."""
    runs = {}
    for path in run_files(paths):
        with open(path) as f:
            record, result = parse_run(f.read())
        if record is None:
            raise ValueError("%s: no run record" % path)
        key = (record["workload"]["name"], bool(record["workload"]["trace"]))
        runs.setdefault(key, []).append(
            (record["host"]["seed"],
             {k: v["value"] for k, v in result["metrics"].items()}))
    return runs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def spread(values):
    q1, median, q3 = quartiles(values)
    return (q3 - q1) / abs(median) if median else float("inf")


def better(metric, a, b):
    """True when value b is better than value a."""
    return b < a if metric["better"] == "lower" else b > a


def verdict(metric, base, change):
    bound = metric["bound"]
    _, base_median, _ = quartiles(base)
    _, change_median, _ = quartiles(change)
    worse_by = (change_median - base_median) / abs(base_median)
    if metric["better"] == "higher":
        worse_by = -worse_by
    resolved = spread(base) <= bound and spread(change) <= bound
    every_better = all(better(metric, a, b) for a in base for b in change)
    if worse_by > bound:
        return "REGRESSION" if resolved else "unresolved"
    if resolved or every_better:
        return "within bound"
    return "unresolved"


def claim(metric, base_runs, change_runs):
    """(met, explanation) under the 9-in-10 paired rule."""
    base = dict(base_runs)
    pairs = [(base[seed], value) for seed, value in change_runs if seed in base]
    if len(pairs) < 10:
        return False, "only %d seed-paired runs, need 10" % len(pairs)
    wins = sum(1 for a, b in pairs if better(metric, a, b))
    base_values = [a for a, _ in pairs]
    q1, base_median, q3 = quartiles(base_values)
    _, change_median, _ = quartiles([b for _, b in pairs])
    moved = abs(change_median - base_median)
    if wins * 10 < 9 * len(pairs):
        return False, "won %d of %d pairs" % (wins, len(pairs))
    if moved <= q3 - q1:
        return False, "median moved %.4g, within the base spread %.4g" % (
            moved, q3 - q1)
    return True, "won %d of %d pairs, median moved %.4g" % (
        wins, len(pairs), moved)


def fmt(values):
    q1, median, q3 = quartiles(values)
    return "%.4g [%.4g, %.4g]" % (median, q1, q3)


def compare(spec, base, change, claims):
    failures = 0
    keys = sorted(set(base) | set(change))
    for workload, traced in keys:
        metrics = spec["per_layer" if traced else "end_to_end"]
        print("\n%s (%s, base %d runs, change %d runs)" % (
            workload, "per-layer" if traced else "end-to-end",
            len(base.get((workload, traced), [])),
            len(change.get((workload, traced), []))))
        print("  %-30s %-9s %-34s %-34s %8s %7s  %s" % (
            "metric", "unit", "base median [q1, q3]",
            "change median [q1, q3]", "delta", "bound", "verdict"))
        for metric in metrics:
            name = metric["name"]
            a_runs = [(s, m[name]) for s, m in base.get((workload, traced), [])
                      if name in m]
            b_runs = [(s, m[name]) for s, m in
                      change.get((workload, traced), []) if name in m]
            if not a_runs or not b_runs:
                print("  %-30s missing on one side" % name)
                continue
            a = [v for _, v in a_runs]
            b = [v for _, v in b_runs]
            _, a_median, _ = quartiles(a)
            _, b_median, _ = quartiles(b)
            delta = ((b_median - a_median) / abs(a_median) * 100
                     if a_median else float("nan"))
            text, bound = "", ""
            if "bound" in metric:
                bound = "%.1f%%" % (metric["bound"] * 100)
                text = verdict(metric, a, b)
                failures += text == "REGRESSION"
            if "%s:%s" % (workload, name) in claims:
                met, why = claim(metric, a_runs, b_runs)
                text += "; claim %s (%s)" % ("met" if met else "NOT met", why)
                failures += not met
            print("  %-30s %-9s %-34s %-34s %7.2f%% %7s  %s" % (
                name, metric["unit"], fmt(a), fmt(b), delta, bound, text))
    return failures


def overhead(runs):
    for workload in sorted({w for w, _ in runs}):
        untraced = {seed: m["latency_mean_ms"]
                    for seed, m in runs.get((workload, False), [])}
        pairs = [100 * (m["net.call_ms"] / untraced[seed] - 1)
                 for seed, m in runs.get((workload, True), [])
                 if seed in untraced]
        if not pairs:
            print("%-18s no seed has both a traced and an untraced run" %
                  workload)
            continue
        q1, median, q3 = quartiles(pairs)
        print("%-18s trace overhead %+.2f%% [%+.2f%%, %+.2f%%] over %d "
              "seed pair(s)" % (workload, median, q1, q3, len(pairs)))


def main():
    parser = argparse.ArgumentParser(
        description=__doc__.split("\n")[0],
        formatter_class=argparse.RawDescriptionHelpFormatter, epilog=__doc__)
    parser.add_argument("--validate", action="store_true")
    parser.add_argument("--overhead", action="store_true")
    parser.add_argument("--spec", help="BENCHMARK.json (default: repo root)")
    parser.add_argument("--vs", nargs="+", default=[], metavar="CHANGE")
    parser.add_argument("--claim", action="append", default=[],
                        metavar="WORKLOAD:METRIC")
    parser.add_argument("runs", nargs="+", metavar="RUN")
    args = parser.parse_args()
    spec = load_spec(args.spec)

    if args.validate:
        problems = []
        for path in run_files(args.runs):
            with open(path) as f:
                problems += ["%s: %s" % (path, p)
                             for p in validate_text(f.read(), spec)]
        for problem in problems:
            print(problem)
        print("%d run(s) checked, %d problem(s)" %
              (len(run_files(args.runs)), len(problems)))
        return 1 if problems else 0
    if args.overhead:
        overhead(load_runs(args.runs))
        return 0
    if not args.vs:
        parser.error("give the change runs with --vs, or use --validate")
    failures = compare(spec, load_runs(args.runs), load_runs(args.vs),
                       set(args.claim))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
