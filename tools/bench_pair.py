"""Compare two checkouts on one perfbench workload, in alternating pairs.

    python3 tools/bench_pair.py PARENT_DIR CHANGE_DIR --workload sample \\
        --seed 1 --pairs 10

Pair k runs `perfbench/run.py --trace 0` once in each checkout, for the
`run_seconds` of BENCHMARK.json, the parent first in even pairs (0, 2,
...) and the change first in odd ones.
For every end-to-end metric of BENCHMARK.json it prints each side's
median and quartiles, how many pairs the change won (ties count for
neither side), the median of the per-pair ratios change / parent with a
95 % bootstrap interval (fixed seed), and a verdict:

- gain: at least MIN_PAIRS pairs, the change won at least nine tenths of
  them, the medians differ, the change's way, by more than the parent's
  quartile distance, and the change failed no larger share of its
  operations than the parent;
- worse: the change's median is worse than the parent's by more than the
  metric's bound;
- unresolved: the parent's quartile distance is wider than the bound, and
  not every run of the change reads better than every parent run;
- within bound: otherwise.

It also prints the failed share of each side.  Each run's metrics are
printed as it ends; the tool exits 1 at the first run that fails or
reports incorrect output.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import statistics
import subprocess
import sys

from bench_fold import change_wins, summary

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
MIN_PAIRS = 10          # fewer pairs than this never show a gain
BOOTSTRAP = 2000        # resamples for the ratio's interval
SIDES = ("parent", "change")


def failed_share(results) -> float:
    """The share of the operations of results that failed."""
    return (sum(r["failed"] for r in results)
            / sum(r["attempted"] for r in results))


def verdict(parent, change, better, bound, failed=(0.0, 0.0)) -> str:
    """The verdict on one metric: parent and change hold its values in
    pair order, better is "higher" or "lower", bound a fraction of the
    parent's median, failed the parent's and the change's failed shares."""
    sign = 1 if better == "higher" else -1
    s = summary(parent)
    q1, median, q3 = s["q1"], s["median"], s["q3"]
    gain = sign * (statistics.median(change) - median)  # > 0: the change's way
    wins = change_wins(parent, change, better)
    if (len(parent) >= MIN_PAIRS and wins >= 0.9 * len(parent)
            and gain > q3 - q1 and failed[1] <= failed[0]):
        return "gain"
    if -gain > bound * abs(median):
        return "worse"
    all_better = (min(change) > max(parent) if sign > 0
                  else max(change) < min(parent))
    if q3 - q1 > bound * abs(median) and not all_better:
        return "unresolved"
    return "within bound"


def ratio_interval(parent, change, seed=0):
    """Median of the per-pair ratios change / parent, and its 95 %
    bootstrap interval over the pairs."""
    ratios = [c / p for p, c in zip(parent, change)]
    rng = random.Random(seed)
    medians = sorted(statistics.median(rng.choices(ratios, k=len(ratios)))
                     for _ in range(BOOTSTRAP))
    return (statistics.median(ratios), medians[int(0.025 * BOOTSTRAP)],
            medians[int(0.975 * BOOTSTRAP) - 1])


def run_once(checkout, args, seconds) -> dict | None:
    """One perfbench run in checkout: its result line, or None if the run
    failed."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(seconds),
           "--trace", "0"] + (["--smoke"] if args.smoke else [])
    proc = subprocess.run(cmd, cwd=checkout, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return None
    return json.loads(lines[-1])


def report(spec, results):
    """The table of every end-to-end metric, and the failed shares."""
    print(f"{'metric':<12} {'parent median [q1, q3]':>26} "
          f"{'change median [q1, q3]':>26} {'wins':>6} "
          f"{'ratio [95% interval]':>24}  verdict")
    shares = tuple(failed_share(results[side]) for side in SIDES)
    for m in spec["end_to_end"]:
        runs = {side: [r["metrics"][m["name"]]["value"] for r in results[side]]
                for side in SIDES}
        cells = [f"{s['median']:.4g} [{s['q1']:.4g}, {s['q3']:.4g}]"
                 for s in map(summary, runs.values())]
        wins = change_wins(*runs.values(), m["better"])
        ratio, lo, hi = ratio_interval(*runs.values())
        print(f"{m['name']:<12} {cells[0]:>26} {cells[1]:>26} "
              f"{wins:>3}/{len(runs['parent']):<2} "
              f"{f'{ratio:.3f} [{lo:.3f}, {hi:.3f}]':>24}  "
              f"{verdict(*runs.values(), m['better'], m['bound'], shares)}")
    for side in SIDES:
        failed = sum(r["failed"] for r in results[side])
        attempted = sum(r["attempted"] for r in results[side])
        print(f"{side}: {failed} failed of {attempted} attempted")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent", help="checkout of the parent commit")
    ap.add_argument("change", help="checkout of the change")
    ap.add_argument("--workload", required=True, choices=("orbit", "sample", "cli"))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--pairs", type=int, default=MIN_PAIRS)
    ap.add_argument("--smoke", action="store_true",
                    help="pass --smoke to perfbench: a few operations only")
    args = ap.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    dirs = {"parent": args.parent, "change": args.change}
    results = {side: [] for side in SIDES}
    for k in range(args.pairs):
        for side in SIDES if k % 2 == 0 else SIDES[::-1]:
            result = run_once(dirs[side], args, spec["run_seconds"])
            if result is None or not result["correct"]:
                print(f"pair {k}: the {side} run failed or was incorrect",
                      file=sys.stderr)
                return 1
            results[side].append(result)
            values = " ".join(f"{name}={v['value']:.4g}"
                              for name, v in result["metrics"].items())
            print(f"# pair {k} {side}: {values}", flush=True)
    report(spec, results)
    return 0


if __name__ == "__main__":
    sys.exit(main())
