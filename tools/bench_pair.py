"""Compare two checkouts on one perfbench workload, in alternating pairs.

    python3 tools/bench_pair.py PARENT_DIR CHANGE_DIR --workload sample \\
        --seed 1 --pairs 10

Pair k runs `perfbench/run.py --trace 0` once in each checkout, for the
`run_seconds` of BENCHMARK.json, the parent first when k is even.
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

The same columns follow per operation kind (the label's first word cut
at "/": the subcommand on cli, the type on orbit and sample), from each
run's median raw (uncalibrated) ms of that kind in its perfbench/out/
trace.  After MIN_PAIRS or more pairs without --smoke, all of it, with
each side's failed operations, both commits and the host, goes to
BENCH_<workload>.json at the repo root.  The tool exits 1 at the first
run that fails, is incorrect or ends in no JSON object.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
MIN_PAIRS = 10          # fewer pairs than this never show a gain
BOOTSTRAP = 2000        # resamples for the ratio's interval
SIDES = ("parent", "change")


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


def kind(label) -> str:
    """The kind of an operation: the first word of its label, cut at "/"."""
    return label.split()[0].split("/")[0]


def run_once(checkout, args, seconds) -> dict | None:
    """One perfbench run in checkout: its result line, with the run's
    median raw ms per operation kind under "kinds", or None if the run
    failed or its last line is not a JSON object."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(seconds),
           "--trace", "0"] + (["--smoke"] if args.smoke else [])
    proc = subprocess.run(cmd, cwd=checkout, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
    except ValueError:
        return None
    if not isinstance(result, dict):
        return None
    trace = os.path.join(checkout, "perfbench", "out",
                         f"{args.workload}-seed{args.seed}-trace0.json")
    with open(trace) as fh:
        raw = json.load(fh)["raw"]
    by_kind = {}
    for label, s in zip(raw["labels"], raw["latencies_s"]):
        by_kind.setdefault(kind(label), []).append(s * 1e3)
    result["kinds"] = {k: statistics.median(v) for k, v in by_kind.items()}
    return result


def commit(checkout) -> str:
    """HEAD of the git checkout, marked when a tracked file differs."""
    head, dirty = (subprocess.check_output(["git", *argv], cwd=checkout, text=True)
                   for argv in (["rev-parse", "HEAD"],
                                ["status", "--porcelain", "--untracked-files=no"]))
    return head.strip() + (" + uncommitted changes" if dirty else "")


def this_host() -> str:
    """The vCPUs, the BLAS pin of perfbench/run.py and the bytecode flag."""
    sys.path.insert(0, os.path.join(ROOT, "perfbench"))
    from run import BLAS_PIN   # the import pins this process too
    env = dict(BLAS_PIN, PYTHONDONTWRITEBYTECODE=os.environ.get("PYTHONDONTWRITEBYTECODE"))
    return ", ".join([f"{os.cpu_count()} vCPUs"]
                     + [f"{k}={v}" for k, v in env.items() if v])


def compare(parent, change, better) -> dict:
    """Both sides' summaries, the change's wins and the median paired
    ratio change / parent with its 95 % interval, low to high."""
    return {"parent": summary(parent), "change": summary(change),
            "change_wins": change_wins(parent, change, better),
            "ratio": dict(zip(("median", "low", "high"), ratio_interval(parent, change)))}


def record(spec, args, results, commits, host) -> dict:
    """The BENCH_<workload>.json record of results, the runs of each side
    in pair order."""
    shares = tuple(failed_share(results[side]) for side in SIDES)
    metrics = {}
    for m in spec["end_to_end"]:
        runs = [[r["metrics"][m["name"]]["value"] for r in results[side]]
                for side in SIDES]
        metrics[m["name"]] = {
            "unit": m["unit"], "better": m["better"], "bound": m["bound"],
            **compare(*runs, m["better"]),
            "verdict": verdict(*runs, m["better"], m["bound"], shares)}
    kinds = {k: compare(*([r["kinds"][k] for r in results[side]]
                          for side in SIDES), "lower")
             for k in sorted(results["parent"][0]["kinds"])}
    return {"workload": args.workload, "seed": args.seed,
            "seconds": spec["run_seconds"], "pairs": len(results["parent"]),
            "order": "alternating: the parent runs first in pairs 0, 2, 4, ...",
            "parent_commit": commits[0], "change_commit": commits[1],
            "host": host, "metrics": metrics,
            "operations": {side: {key: sum(r[key] for r in results[side])
                                  for key in ("failed", "attempted")}
                           for side in SIDES},
            "kinds": kinds}


def report(rec):
    """The tables of the end-to-end metrics and the operation kinds, and
    each side's failed operations."""
    for title, rows, last in (("metric", rec["metrics"], "  verdict"),
                              ("kind, raw ms", rec["kinds"], "")):
        print(f"{title:<12} {'parent median [q1, q3]':>26} "
              f"{'change median [q1, q3]':>26} {'wins':>6} "
              f"{'ratio [95% interval]':>24}{last}")
        for name, c in rows.items():
            cells = [f"{s['median']:.4g} [{s['q1']:.4g}, {s['q3']:.4g}]"
                     for s in (c["parent"], c["change"])]
            ratio = "{median:.3f} [{low:.3f}, {high:.3f}]".format(**c["ratio"])
            print(f"{name:<12} {cells[0]:>26} {cells[1]:>26} "
                  f"{c['change_wins']:>3}/{rec['pairs']:<2} {ratio:>24}"
                  + (f"  {c['verdict']}" if "verdict" in c else ""))
    for side, ops in rec["operations"].items():
        print(f"{side}: {ops['failed']} failed of {ops['attempted']} attempted")


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
    writes = args.pairs >= MIN_PAIRS and not args.smoke
    # read before the runs, so a checkout outside git fails before them
    commits = [commit(getattr(args, side)) for side in SIDES] if writes else [None] * 2
    results = {side: [] for side in SIDES}
    for k in range(args.pairs):
        for side in SIDES if k % 2 == 0 else SIDES[::-1]:
            result = run_once(getattr(args, side), args, spec["run_seconds"])
            if result is None or not result["correct"]:
                print(f"pair {k}: the {side} run failed or was incorrect",
                      file=sys.stderr)
                return 1
            results[side].append(result)
            values = " ".join(f"{name}={v['value']:.4g}"
                              for name, v in result["metrics"].items())
            print(f"# pair {k} {side}: {values}", flush=True)
    rec = record(spec, args, results, commits, this_host() if writes else None)
    report(rec)
    if writes:
        out = os.path.join(ROOT, f"BENCH_{args.workload}.json")
        with open(out, "w") as fh:
            fh.write(json.dumps(rec, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
