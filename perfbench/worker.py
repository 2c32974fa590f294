"""One workload process: import, set up, then (role "run") the timed rounds.

Started by run.py from the root of a checkout, with the checkout's src/
first on PYTHONPATH.  Protocol: the line READY on stdout once set-up is
done; then (role "run") before each operation the line WAIT, answered
by GO on stdin once the parent has sampled the machine speed; finally
one JSON line with the raw results.
"""

from __future__ import annotations

import time

_T0 = time.perf_counter()
import numpy  # noqa: E402,F401

_T_NUMPY = time.perf_counter()
import starweyl  # noqa: E402

_T_STARWEYL = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402

import workloads  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _parse():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=("orbit", "sample",
                                                          "cli"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--role", choices=("setup", "run"), required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--inproc", action="store_true",
                    help="cli: call cli.main in process instead of spawning")
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--workdir", required=True)
    return ap.parse_args()


def pace():
    """Hand the machine to the parent for a calibration sample."""
    sys.stdout.write("WAIT\n")
    sys.stdout.flush()
    if sys.stdin.readline().strip() != "GO":
        sys.exit("the benchmark parent went away")


def main():
    args = _parse()
    src = os.path.join(ROOT, "src")
    if not os.path.abspath(starweyl.__file__).startswith(src + os.sep):
        sys.exit(f"starweyl was imported from {starweyl.__file__}, "
                 f"not from {src}")
    tracer = None
    if args.trace:
        import tracer as tracer_mod
        tracer = tracer_mod.Tracer()
        tracer.install()

    rounds = 1 if args.smoke else workloads.rounds_for(args.workload,
                                                       args.seconds)
    if args.workload == "orbit":
        inputs = workloads.prepare_orbit(args.seed, pace, args.smoke)
    elif args.workload == "sample":
        inputs = workloads.prepare_sample(args.seed, args.smoke)
    else:
        inputs = workloads.cli_plan(args.seed, args.workdir, rounds, pace,
                                    args.smoke)
    print("READY", flush=True)
    if args.role == "setup":
        return

    tally = workloads.Tally()
    lstsq_before = tracer.linalg["lstsq"] if tracer else 0
    child_rss_kib = 0
    if args.workload == "orbit":
        for _ in range(rounds):
            workloads.run_orbit(inputs, tally, pace)
    elif args.workload == "sample":
        for _ in range(rounds):
            workloads.run_sample(inputs, tally, pace)
    else:
        child_rss_kib = workloads.run_cli(inputs, tally, pace, args.inproc,
                                          tracer)
    own_rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    result = {
        "rounds": rounds,
        "labels": [op.label for op in tally.ops],
        "latencies_s": [op.latency_s for op in tally.ops],
        "failed": [op.failed for op in tally.ops],
        "errors": tally.errors,
        # cli: the largest `starweyl` command process; else this process
        "peak_rss_mb": (child_rss_kib or own_rss_kib) / 1024.0,
        "import_numpy_ms": (_T_NUMPY - _T0) * 1e3,
        "import_starweyl_ms": (_T_STARWEYL - _T_NUMPY) * 1e3,
    }
    if tracer:
        tracer.uninstall()
        ops = len(tally.ops)
        result["layers"] = tracer.metrics(
            ops, tracer.linalg["lstsq"] - lstsq_before)
    print(json.dumps(result), flush=True)


if __name__ == "__main__":
    main()
