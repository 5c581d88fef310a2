#!/usr/bin/env python3
"""Steadiness self-check for the benchmark.

Runs one workload N times, each with another seed, through the command in
BENCHMARK.json, and prints for every end-to-end metric its median, its
quartiles and its spread (the distance between the quartiles as a share of
the median) against the metric's bound. With --compare it also checks that
this set's medians are not worse than an earlier set's by more than the
bound. For every host-time metric it also prints the spread of the scaled
and of the raw values, from the run's `{"scaling": ...}` line, which is the
evidence for which metrics the benchmark reports scaled. Each run's line
ends with the share of the box's CPU time the hypervisor stole during it
(from /proc/stat).

    python3 perfbench/steady.py --workload paper-grid --runs 10 --out set1
    python3 perfbench/steady.py --workload paper-grid --runs 10 --out set2 \
        --first-seed 100 --compare set1

Run from the root of the repository. Results go to
perfbench/results/<out>-<workload>.json.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
RESULTS = os.path.join(HERE, "results")


def load_spec():
    with open(os.path.join(HERE, "..", "BENCHMARK.json")) as f:
        return json.load(f)


def run_once(spec, workload, seed, seconds, trace):
    cmd = spec["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
    ]
    out = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=True).stdout
    lines = out.strip().splitlines()
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        sys.exit(f"seed {seed}: not correct: {result['failed']} of {result['attempted']} failed")
    scaling = {}
    for line in lines[:-1]:
        if line.startswith('{"scaling"'):
            scaling = json.loads(line)["scaling"]
    return {name: m["value"] for name, m in result["metrics"].items()}, scaling


def cpu_ticks():
    """(steal, total) CPU ticks of the whole box, or (0, 0) without /proc/stat."""
    try:
        with open("/proc/stat") as f:
            ticks = [int(t) for t in f.readline().split()[1:]]
    except OSError:
        return 0, 0
    return ticks[7], sum(ticks)


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, q1, q3, (q3 - q1) / med


def worse_by(metric, first, second):
    """How much worse `second` is than `first`, as a share of `first`."""
    if metric["better"] == "lower":
        return (second - first) / first
    return (first - second) / first


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=None)
    ap.add_argument("--out", required=True, help="label of this set of runs")
    ap.add_argument("--compare", help="label of an earlier set to compare medians with")
    args = ap.parse_args()
    if args.runs < 2:
        sys.exit("--runs must be at least 2")

    spec = load_spec()
    seconds = args.seconds or spec["run_seconds"]
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    runs = []
    for i in range(args.runs):
        seed = args.first_seed + i
        steal0, total0 = cpu_ticks()
        values, scaling = run_once(spec, args.workload, seed, seconds, 0)
        steal1, total1 = cpu_ticks()
        steal = (steal1 - steal0) / max(total1 - total0, 1)
        runs.append({"seed": seed, "metrics": values, "scaling": scaling, "steal_frac": steal})
        print(f"run {i + 1}/{args.runs} seed {seed}: "
              + " ".join(f"{k}={v:.4g}" for k, v in values.items())
              + f" (steal {steal:.3f})", flush=True)

    os.makedirs(RESULTS, exist_ok=True)
    path = os.path.join(RESULTS, f"{args.out}-{args.workload}.json")
    summary = {}
    print(f"\n{args.workload}: {args.runs} runs of {seconds} s")
    print(f"{'metric':20} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6} {'verdict'}")
    ok = True
    for name, m in metrics.items():
        med, q1, q3, sp = spread([r["metrics"][name] for r in runs])
        bound = m["bound"]
        if sp < bound / 3:
            verdict = "steady (< bound/3)"
        elif sp < bound:
            verdict = "within bound"
        else:
            verdict, ok = "TOO NOISY", False
        summary[name] = {"median": med, "q1": q1, "q3": q3, "spread": sp}
        print(f"{name:20} {med:12.5g} {q1:12.5g} {q3:12.5g} {sp:8.3f} {bound:6.2f} {verdict}")

    scaled_names = sorted(runs[0]["scaling"])
    if scaled_names:
        print(f"\nscaled against raw (the metric reports one of them)")
        print(f"{'metric':20} {'scaled median':>14} {'spread':>8} {'raw median':>12} {'spread':>8}")
        for name in scaled_names:
            sm, _, _, ss = spread([r["scaling"][name]["scaled"] for r in runs])
            rm, _, _, rs = spread([r["scaling"][name]["raw"] for r in runs])
            print(f"{name:20} {sm:14.5g} {ss:8.3f} {rm:12.5g} {rs:8.3f}")
            summary[name].update({"scaled_spread": ss, "raw_spread": rs})

    if args.compare:
        with open(os.path.join(RESULTS, f"{args.compare}-{args.workload}.json")) as f:
            first = json.load(f)["summary"]
        print(f"\nmedians against set {args.compare!r}")
        for name, m in metrics.items():
            w = worse_by(m, first[name]["median"], summary[name]["median"])
            fine = w <= m["bound"]
            ok &= fine
            print(f"{name:20} {first[name]['median']:12.5g} -> {summary[name]['median']:12.5g} "
                  f"worse by {w:+.3f} (bound {m['bound']:.2f}) {'ok' if fine else 'WORSE THAN BOUND'}")

    with open(path, "w") as f:
        json.dump({"workload": args.workload, "seconds": seconds, "runs": runs,
                   "summary": summary}, f, indent=1)
    print(f"\nwrote {os.path.relpath(path)}")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
