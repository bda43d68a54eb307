#!/usr/bin/env python3
"""Check one valley_bench result line against BENCHMARK.json.

Reads the last line valley_bench printed (on stdin) and exits non-zero
unless it is a JSON object with exactly the keys correct, attempted,
failed and metrics; every run was correct and no op failed; and the
metrics are exactly the declared end-to-end metrics (--trace 0) or
per-layer metrics (--trace 1), each with its declared unit.

    valley_bench ... | tail -n 1 | check_result.py --trace 0
"""

import argparse
import json
import numbers
import pathlib
import sys

DECLARED = pathlib.Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def problems(result, declared):
    if not isinstance(result, dict):
        return ["result is not a JSON object"]
    out = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        out.append(f"result keys are {sorted(result)}")
        return out
    if result["correct"] is not True:
        out.append("correct is not true")
    attempted, failed = result["attempted"], result["failed"]
    if not isinstance(attempted, int) or attempted < 1:
        out.append(f"attempted is {attempted!r}")
    if failed != 0:
        out.append(f"{failed} of {attempted} ops failed")
    metrics = result["metrics"]
    for name in sorted(set(metrics) - set(declared)):
        out.append(f"undeclared metric {name}")
    for name, unit in declared.items():
        m = metrics.get(name)
        if m is None:
            out.append(f"missing metric {name}")
        elif not isinstance(m.get("value"), numbers.Real):
            out.append(f"{name}: value {m.get('value')!r} is not a number")
        elif m.get("unit") != unit:
            out.append(f"{name}: unit {m.get('unit')!r}, declared {unit!r}")
    return out


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--trace", choices=["0", "1"], required=True)
    args = ap.parse_args()
    bench = json.loads(DECLARED.read_text())
    key = "per_layer" if args.trace == "1" else "end_to_end"
    declared = {m["name"]: m["unit"] for m in bench[key]}
    try:
        result = json.loads(sys.stdin.read().strip().splitlines()[-1])
    except (IndexError, json.JSONDecodeError) as e:
        print(f"check_result: no JSON result line ({e})", file=sys.stderr)
        return 1
    found = problems(result, declared)
    for p in found:
        print(f"check_result: {p}", file=sys.stderr)
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main())
