#!/usr/bin/env python3
"""Same-runner throughput gate: perfbench `paper-grid` on two git refs.

    python3 .github/perf_ab.py --base REF --head REF

Each ref's tree is extracted with `git archive` into a temporary directory
(the git worktree is never touched) and its own perfbench is built there
with a separate CARGO_TARGET_DIR. The two binaries then run in alternating
pairs on one machine, base first in odd pairs and head first in even ones,
so a slow stretch of the runner lands on both sides.

Exits 1 when the head's median `macc_per_s` is below the base's median by
more than the `macc_per_s` bound in BENCHMARK.json, when any run's last
line does not parse, or when any run reports `"correct": false` or
`failed > 0`. Prints every run and both medians.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

PAIRS = 3
SECONDS = 10
WORKLOAD = "paper-grid"
METRIC = "macc_per_s"

REPO = Path(__file__).resolve().parent.parent


def bound():
    spec = json.loads((REPO / "BENCHMARK.json").read_text())
    return next(m["bound"] for m in spec["end_to_end"] if m["name"] == METRIC)


def build(ref, work):
    """Extract `ref` under `work` and build its perfbench; return (root, binary)."""
    root = work / "src"
    target = work / "target"
    root.mkdir()
    archive = subprocess.Popen(["git", "archive", ref], cwd=REPO, stdout=subprocess.PIPE)
    subprocess.run(["tar", "-x", "-C", str(root)], stdin=archive.stdout, check=True)
    archive.stdout.close()
    if archive.wait() != 0:
        sys.exit(f"perf_ab: git archive {ref} failed")
    print(f"building perfbench at {ref} ...", flush=True)
    subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", str(root / "perfbench" / "Cargo.toml")],
        env={**os.environ, "CARGO_TARGET_DIR": str(target)},
        check=True,
    )
    return root, target / "release" / "asf-perfbench"


def run(side, root, binary, seed):
    """Run one perfbench measurement; return (macc_per_s or None, problem or None)."""
    out = subprocess.run(
        [str(binary), "--workload", WORKLOAD, "--trace", "0",
         "--seconds", str(SECONDS), "--seed", str(seed)],
        cwd=root, capture_output=True, text=True,
    )
    lines = out.stdout.strip().splitlines()
    try:
        report = json.loads(lines[-1])
        value = float(report["metrics"][METRIC]["value"])
        correct, failed = report["correct"], report["failed"]
    except (IndexError, KeyError, TypeError, ValueError) as e:
        print(f"  {side} seed={seed}: unparseable last line (exit {out.returncode}): {e}")
        print(out.stderr[-2000:])
        return None, f"{side} seed={seed}: last line does not parse"
    print(f"  {side} seed={seed}: {METRIC}={value:.4f} correct={correct} failed={failed}")
    if correct is not True or failed > 0:
        return value, f"{side} seed={seed}: correct={correct} failed={failed}"
    return value, None


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--base", required=True, help="git ref of the baseline tree")
    ap.add_argument("--head", required=True, help="git ref of the candidate tree")
    args = ap.parse_args()
    limit = bound()

    with tempfile.TemporaryDirectory(prefix="perf_ab_") as tmp:
        sides = {}
        for side, ref in (("base", args.base), ("head", args.head)):
            work = Path(tmp) / side
            work.mkdir()
            sides[side] = build(ref, work)

        values = {"base": [], "head": []}
        problems = []
        for pair in range(1, PAIRS + 1):
            order = ("base", "head") if pair % 2 == 1 else ("head", "base")
            print(f"pair {pair} ({order[0]} first):", flush=True)
            for side in order:
                value, problem = run(side, *sides[side], seed=pair)
                if value is not None:
                    values[side].append(value)
                if problem:
                    problems.append(problem)

    if problems:
        for p in problems:
            print(f"FAIL: {p}")
        return 1
    base, head = statistics.median(values["base"]), statistics.median(values["head"])
    ratio = head / base
    print(f"median {METRIC}: base {base:.4f} ({args.base}), head {head:.4f} ({args.head}), "
          f"head/base {ratio:.3f}, floor {1 - limit:.2f}")
    if head < base * (1 - limit):
        print(f"FAIL: head is more than {limit:.0%} slower than base on {WORKLOAD}")
        return 1
    print("OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
