#!/usr/bin/env python3
"""Compare two sets of valley_bench result files.

    compare.py A/ B/

A and B are directories of result files (`<workload>.s<seed>.json`,
as run.sh writes them); A is the baseline. For each workload and
metric, one row gives each side's median and quartiles. End-to-end
metrics get a verdict from their direction and bound in BENCHMARK.json:

  ok          B's median is not worse than A's by more than the bound
  worse       B's median is worse than A's by more than the bound
  unresolved  a side's quartile spread exceeds the bound, unless every
              run of one side beats every run of the other (then
              better / worse)

Simulated outcomes (the `sim` block) and the per-op digests of runs
with the same workload, seed and trace mode must be identical; any
difference is flagged. Exits 1 on a `worse` verdict or a flagged
difference, else 0.
"""

import argparse
import json
import pathlib
import statistics
import sys
from collections import defaultdict

DECLARED = pathlib.Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def load(directory):
    runs = []
    for path in sorted(pathlib.Path(directory).glob("*.json")):
        with open(path) as f:
            doc = json.load(f)
        if isinstance(doc, dict) and "workload" in doc and "metrics" in doc:
            runs.append(doc)
    if not runs:
        sys.exit(f"compare: no result files in {directory}")
    return runs


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def verdict(a, b, better, bound):
    qa, qb = quartiles(a), quartiles(b)
    sign = 1.0 if better == "higher" else -1.0
    wins = all(sign * (y - x) > 0 for x in a for y in b)
    losses = all(sign * (x - y) > 0 for x in a for y in b)
    spread = max((q[2] - q[0]) / abs(q[1]) if q[1] else 0.0 for q in (qa, qb))
    if spread > bound:
        return "better" if wins else "worse" if losses else "unresolved"
    worse_by = sign * (qa[1] - qb[1]) / abs(qa[1]) if qa[1] else 0.0
    return "worse" if worse_by > bound else "ok"


def fmt(q):
    return f"{q[1]:>12.6g} [{q[0]:.6g}, {q[2]:.6g}]"


def main():
    ap = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("a", help="baseline result directory")
    ap.add_argument("b", help="candidate result directory")
    args = ap.parse_args()
    declared = json.loads(DECLARED.read_text())
    spec = {m["name"]: m for m in declared["end_to_end"] + declared["per_layer"]}

    sides = [load(args.a), load(args.b)]
    for label, runs in zip("AB", sides):
        commits = sorted({r["provenance"]["commit"] for r in runs})
        probe = statistics.median(r["host"]["probe_s"] for r in runs)
        print(f"{label}: {len(runs)} runs, commit {', '.join(commits)}, "
              f"median speed probe {probe * 1e3:.3f} ms")

    values = defaultdict(lambda: ([], []))
    for i, runs in enumerate(sides):
        for r in runs:
            for name, m in r["metrics"].items():
                values[(r["workload"], name)][i].append(m["value"])

    failed = False
    print(f"\n{'workload':<16} {'metric':<26} {'A median [q1, q3]':>34} "
          f"{'B median [q1, q3]':>34}  verdict")
    for (workload, name), (a, b) in sorted(values.items()):
        if not a or not b:
            continue
        m = spec.get(name, {})
        v = verdict(a, b, m["better"], m["bound"]) if "bound" in m else "-"
        failed |= v == "worse"
        print(f"{workload:<16} {name:<26} {fmt(quartiles(a)):>34} "
              f"{fmt(quartiles(b)):>34}  {v}")

    # Runs of one (workload, seed, trace) must simulate identically.
    by_key = [{(r["workload"], r["seed"], r["trace"]): r for r in runs}
              for runs in sides]
    pairs = sorted(set(by_key[0]) & set(by_key[1]))
    mismatches = 0
    for key in pairs:
        ra, rb = by_key[0][key], by_key[1][key]
        for name in sorted(set(ra["sim"]) | set(rb["sim"])):
            va = ra["sim"].get(name, {}).get("value")
            vb = rb["sim"].get(name, {}).get("value")
            if va != vb:
                mismatches += 1
                print(f"DIFF {key}: {name} {va} != {vb}")
        for da, db in zip(ra["digests"], rb["digests"]):
            if da != db:
                mismatches += 1
                print(f"DIFF {key}: digest {da} != {db}")
        if len(ra["digests"]) != len(rb["digests"]):
            mismatches += 1
            print(f"DIFF {key}: op lists differ in length")
    print(f"\n{len(pairs)} paired runs, {mismatches} simulated-outcome or "
          f"digest differences")
    return 1 if failed or mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
