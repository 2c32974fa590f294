"""Fold alternating parent/change perfbench runs into BENCH_<workload>.json.

    python3 tools/bench_fold.py --workload cli --seed 1 --seconds 20 \\
        --parent-commit <sha> --change-commit <text> --host <text> \\
        --parent p1.json p2.json ... --change c1.json c2.json ...

Each input is a copy of one run's perfbench/out/<workload>-seed<n>-trace0.json,
given in pair order (the k-th parent file and the k-th change file form
pair k).  The record holds every end-to-end metric of BENCHMARK.json for
both sides: the runs, their median and quartiles, and how many pairs the
change won (ties count for neither side).  The record is written to the
repo root.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def summary(runs):
    """Median and quartiles of runs, inclusive method; one run is its own
    quartiles."""
    q1, median, q3 = (statistics.quantiles(runs, n=4, method="inclusive")
                      if len(runs) > 1 else runs * 3)
    return {"q1": q1, "median": median, "q3": q3, "runs": runs}


def change_wins(parent, change, better) -> int:
    """Pairs in which the change reads better; ties count for neither side."""
    sign = 1 if better == "higher" else -1
    return sum(sign * (c - p) > 0 for p, c in zip(parent, change))


def fold(args) -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    if len(args.parent) != len(args.change) or len(args.parent) < 2:
        raise SystemExit("need the same number (at least 2) of parent and "
                         "change runs")
    sides = {}
    for side in ("parent", "change"):
        sides[side] = []
        for path in getattr(args, side):
            with open(path) as fh:
                sides[side].append(json.load(fh)["metrics"])
    metrics = {}
    for m in spec["end_to_end"]:
        name = m["name"]
        parent = [run[name][0] for run in sides["parent"]]  # [value, unit]
        change = [run[name][0] for run in sides["change"]]
        metrics[name] = {
            "unit": m["unit"], "better": m["better"], "bound": m["bound"],
            "parent": summary(parent), "change": summary(change),
            "change_wins": change_wins(parent, change, m["better"]),
        }
    return {"workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "pairs": len(args.parent),
            "order": "alternating: the parent runs first in odd pairs",
            "parent_commit": args.parent_commit,
            "change_commit": args.change_commit,
            "host": args.host, "metrics": metrics}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--parent-commit", required=True)
    ap.add_argument("--change-commit", required=True)
    ap.add_argument("--host", required=True,
                    help="the machine the runs shared, e.g. its vCPU count")
    ap.add_argument("--parent", nargs="+", required=True)
    ap.add_argument("--change", nargs="+", required=True)
    args = ap.parse_args()
    out = os.path.join(ROOT, f"BENCH_{args.workload}.json")
    with open(out, "w") as fh:
        fh.write(json.dumps(fold(args), indent=1) + "\n")
    print(out)


if __name__ == "__main__":
    main()
