#!/usr/bin/env python3
"""Summarize a traced valley_bench run's Chrome trace.

Prints, per span name, the span count, total time and self time (the
span's duration minus the part its direct children cover). Names are
grouped: the benchmark's `op#<i>/<layer>` spans by layer and indices in
library span names by `N`, so `kernel#3 tb[0,256)` counts as
`kernel#N tb[N,N)`. valley_bench flushes the trace after every traced
pass, so the file holds the last pass.

Exits non-zero if the layer spans inside any `op#<i>` span cover less
than 95% of it, i.e. if an op spends time the per-layer metrics do not
attribute to a layer.

    trace_summary.py build-bench/results/valley_cells.s1.traced.chrome-trace.json
"""

import argparse
import json
import re
import sys
from collections import defaultdict

MIN_COVERAGE = 0.95
OP = re.compile(r"^op#\d+$")


def group(name):
    if OP.match(name):
        return "op"
    m = re.match(r"^op#\d+/(.*)$", name)
    if m:
        return "op/" + m.group(1)
    return re.sub(r"(?<=[#\[,])\d+", "N", name)


def nest(events):
    """Yield (event, direct children time) for complete events, per thread."""
    by_tid = defaultdict(list)
    for e in events:
        if e.get("ph") == "X":
            by_tid[e["tid"]].append(e)
    for spans in by_tid.values():
        # Parents sort before the children they contain.
        spans.sort(key=lambda e: (e["ts"], -e["dur"]))
        child_time = [0.0] * len(spans)
        stack = []
        for i, e in enumerate(spans):
            while stack and e["ts"] >= spans[stack[-1]]["ts"] + spans[stack[-1]]["dur"]:
                stack.pop()
            if stack:
                child_time[stack[-1]] += e["dur"]
            stack.append(i)
        yield from zip(spans, child_time)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("trace", nargs="+", help="Chrome trace JSON files")
    ap.add_argument("--quiet", action="store_true",
                    help="print only the coverage line")
    args = ap.parse_args()
    ok = True
    for path in args.trace:
        with open(path) as f:
            doc = json.load(f)
        rows = defaultdict(lambda: [0, 0.0, 0.0])
        worst = None
        for e, children in nest(doc["traceEvents"]):
            row = rows[group(e["name"])]
            row[0] += 1
            row[1] += e["dur"]
            row[2] += e["dur"] - children
            if OP.match(e["name"]) and e["dur"] > 0:
                cover = children / e["dur"]
                if worst is None or cover < worst[0]:
                    worst = (cover, e["name"])
        if not args.quiet:
            print(path)
            print(f"  {'span':<34} {'count':>7} {'total s':>10} {'self s':>10}")
            for name, (n, total, self_us) in sorted(
                    rows.items(), key=lambda kv: -kv[1][1]):
                print(f"  {name:<34} {n:>7} {total / 1e6:>10.4f} "
                      f"{self_us / 1e6:>10.4f}")
        dropped = doc.get("droppedEvents", 0)
        if worst is None:
            print(f"{path}: no op spans", file=sys.stderr)
            ok = False
            continue
        passed = worst[0] >= MIN_COVERAGE and dropped == 0
        ok &= passed
        print(f"{path}: layer spans cover >= {worst[0]:.2%} of every op "
              f"(worst {worst[1]}), {dropped} dropped events: "
              f"{'ok' if passed else 'FAIL'}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
