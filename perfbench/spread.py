#!/usr/bin/env python3
"""Spread report: run the benchmark repeatedly and show how steady each metric is.

Runs the command named in BENCHMARK.json once per seed for each workload,
then prints, per workload and metric, the median, the quartiles, the
quartile spread (q3 - q1) / median beside the metric's bound, and the full
range (max - min) / median. A metric whose range exceeds a tenth of its
median is flagged, as is one whose quartile spread exceeds a third of its
bound.

    python3 perfbench/spread.py --runs 10 --seed-base 100 [--workload NAME ...]
                                [--trace 0|1] [--seconds S] [--out results.json]
    python3 perfbench/spread.py --compare first.json second.json

Run it from the repository root. `--compare` reads two saved result files
and reports, per metric, how far the second median moved from the first,
against the metric's bound.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

RANGE_FLAG = 0.10


def load_spec():
    with open("BENCHMARK.json") as f:
        return json.load(f)


def run_once(spec, workload, seed, seconds, trace):
    cmd = spec["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
    ]
    # Keep the build out of perfbench/ unless the caller chose a directory.
    env = dict(os.environ)
    env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    started = time.monotonic()
    proc = subprocess.run(cmd, capture_output=True, text=True, env=env)
    elapsed = time.monotonic() - started
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stdout + proc.stderr)
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}")
    result = json.loads(lines[-1])
    # Keep the table's notes (uncorrected timings, host slowdown) with the run.
    result["notes"] = [line[2:] for line in lines[:-1] if line.startswith("# ")]
    if not result["correct"] or result["failed"]:
        sys.stderr.write(proc.stdout)
        raise SystemExit(f"{workload} seed {seed}: correct={result['correct']} failed={result['failed']}")
    return result, elapsed


def summarize(values):
    values = sorted(values)
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (values[0],) * 3
    scale = abs(median) if median else float("nan")
    return median, q1, q3, (q3 - q1) / scale, (values[-1] - values[0]) / scale


def report(spec, results, trace):
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    names = [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]
    header = f"{'workload':<15} {'metric':<32} {'median':>14} {'q1':>14} {'q3':>14} {'iqr/med':>8} {'bound':>6} {'range/med':>9}"
    print(header)
    for workload, runs in results.items():
        for name in names:
            values = [r["metrics"][name]["value"] for r in runs]
            median, q1, q3, iqr, rng = summarize(values)
            bound = bounds.get(name)
            flags = []
            if rng > RANGE_FLAG:
                flags.append("RANGE>0.1")
            if bound is not None and not iqr <= bound / 3:
                flags.append("IQR>bound/3")
            print(f"{workload:<15} {name:<32} {median:>14.6g} {q1:>14.6g} {q3:>14.6g} "
                  f"{iqr:>8.4f} {bound if bound is not None else '':>6} {rng:>9.4f} {' '.join(flags)}")


def compare(spec, first, second):
    bounds = {m["name"]: (m["bound"], m["better"]) for m in spec["end_to_end"]}
    print(f"{'workload':<15} {'metric':<24} {'median 1':>14} {'median 2':>14} {'worse by':>9} {'bound':>6}")
    for workload in first:
        for name, (bound, better) in bounds.items():
            a = statistics.median(r["metrics"][name]["value"] for r in first[workload])
            b = statistics.median(r["metrics"][name]["value"] for r in second[workload])
            worse = (b - a) / a if better == "lower" else (a - b) / a
            flag = "WORSE>bound" if worse > bound else ""
            print(f"{workload:<15} {name:<24} {a:>14.6g} {b:>14.6g} {worse:>9.4f} {bound:>6} {flag}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", action="append")
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seed-base", type=int, default=100)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", type=int, default=0, choices=[0, 1])
    parser.add_argument("--out")
    parser.add_argument("--compare", nargs=2, metavar=("FIRST", "SECOND"))
    args = parser.parse_args()
    spec = load_spec()
    if args.compare:
        with open(args.compare[0]) as f, open(args.compare[1]) as g:
            compare(spec, json.load(f)["results"], json.load(g)["results"])
        return
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    seconds = args.seconds or spec["run_seconds"]
    results = {}
    for workload in workloads:
        results[workload] = []
        for i in range(args.runs):
            result, elapsed = run_once(spec, workload, args.seed_base + i, seconds, args.trace)
            results[workload].append(result)
            print(f"# {workload} seed {args.seed_base + i}: {elapsed:.1f} s", file=sys.stderr)
    report(spec, results, args.trace)
    if args.out:
        with open(args.out, "w") as f:
            json.dump({"trace": args.trace, "seconds": seconds, "results": results}, f, indent=1)


if __name__ == "__main__":
    main()
