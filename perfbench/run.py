"""starweyl benchmark: one workload per invocation, run from the repo root.

    python3 perfbench/run.py --workload orbit --seed 1 --seconds 20 --trace 0

Each workload runs in its own fresh process with OpenBLAS pinned to one
thread.  --trace 0 reports the end-to-end metrics; --trace 1 runs the
workload once untraced and once with per-layer wrappers and reports the
per-layer metrics and the tracing overhead.  Times are scaled to a
reference machine speed (see calibrate.py).  The last line of stdout is
one JSON object: correct, attempted, failed, metrics.  Raw results go to
perfbench/out/.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
SETUPS = 3            # set-ups per untraced run; setup_s is their median
SETUP_SAMPLES = 5     # calibration samples before and after each set-up
TIMEOUT_S = 170

BLAS_PIN = {var: "1" for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                 "MKL_NUM_THREADS")}
os.environ.update(BLAS_PIN)   # before numpy loads, for the calibration kernel

import calibrate  # noqa: E402


def child_env():
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    return env


class Worker:
    """One worker process.  Whenever it waits (WAIT), the parent samples
    the machine speed before letting it go on (GO): between set-up steps
    and before every operation."""

    def __init__(self, args, role, deadline, trace=0, inproc=False):
        cmd = [sys.executable, os.path.join(HERE, "worker.py"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--role", role,
               "--trace", str(trace), "--workdir", workdir(args)]
        if inproc:
            cmd.append("--inproc")
        if args.smoke:
            cmd.append("--smoke")
        self.kernel = calibrate.for_workload(args.workload)
        self.boundaries = []      # (time, samples) at each WAIT
        self.serving_s = 0.0      # parent time spent answering WAITs
        self.last_go = None
        setup_kernel = calibrate.KERNELS["compute"]
        setup_samples = setup_kernel.samples(SETUP_SAMPLES)
        t0 = time.perf_counter()
        self.proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(),
                                     stdin=subprocess.PIPE,
                                     stdout=subprocess.PIPE, text=True)
        self.watchdog = threading.Timer(max(1.0, deadline - time.monotonic()),
                                        self.proc.kill)
        self.watchdog.start()
        line = self._serve(setup_kernel)
        self.setup_raw_s = time.perf_counter() - t0 - self.serving_s
        if line.strip() != "READY":
            self.close()
            raise RuntimeError(f"{role} worker failed during set-up "
                               f"(exit {self.proc.returncode})")
        setup_samples += [x for _, xs in self.boundaries for x in xs]
        setup_samples += setup_kernel.samples(SETUP_SAMPLES)
        self.setup_s = self.setup_raw_s * setup_kernel.scale(setup_samples)
        self.boundaries, self.last_go = [], None

    def _boundary(self, kernel):
        now = time.perf_counter()
        op_s = now - self.last_go if self.last_go is not None else 0.0
        self.boundaries.append((now, kernel.samples_after(op_s)))

    def _serve(self, kernel):
        """Answer WAITs until the worker prints anything else; return that
        line ('' at end of output)."""
        for line in self.proc.stdout:
            if line != "WAIT\n":
                return line
            t = time.perf_counter()
            self._boundary(kernel)
            self.proc.stdin.write("GO\n")
            self.proc.stdin.flush()
            self.last_go = time.perf_counter()
            self.serving_s += self.last_go - t
        return ""

    def run(self):
        """Serve the timed operations; returns the worker's result and the
        calibration boundaries around its operations."""
        last = self._serve(self.kernel)
        self._boundary(self.kernel)
        self.close()
        if self.proc.returncode != 0 or not last:
            raise RuntimeError(f"worker exited {self.proc.returncode}")
        return json.loads(last), self.boundaries

    def close(self):
        self.proc.stdin.close()
        self.proc.wait()
        self.watchdog.cancel()
        self.proc.stdout.close()


def workdir(args):
    return os.path.join(OUT, f"work-{args.workload}-{os.getpid()}")


def tail_percentile(n):
    """Highest whole percentile with at least ten operations beyond it."""
    return max(50, math.floor(100 * (1 - 10 / n)))


def percentile(sorted_vals, p):
    """Nearest-rank percentile."""
    rank = max(1, math.ceil(p / 100 * len(sorted_vals)))
    return sorted_vals[rank - 1]


def latency_metrics(latencies_s, failed, p):
    """ok_per_s, p50 and tail (ms) of one set of per-operation times; a
    failed operation counts with the time it took to fail."""
    lat = sorted(s * 1e3 for s in latencies_s)
    ok = len(lat) - sum(failed)
    return ok / sum(latencies_s), percentile(lat, 50), percentile(lat, p)


def kernel_median(boundaries):
    return statistics.median(x for _, xs in boundaries for x in xs)


def end_to_end(kernel, raw, between, setups, setups_raw):
    n = len(raw["latencies_s"])
    p = tail_percentile(n)
    scaled = kernel.scale_ops(raw["latencies_s"], between)
    ok_per_s, p50, tail = latency_metrics(scaled, raw["failed"], p)
    raw_ok, raw_p50, raw_tail = latency_metrics(raw["latencies_s"],
                                                raw["failed"], p)
    print(f"# {n} operations in {raw['rounds']} rounds, tail percentile "
          f"p{p}; {kernel.name} kernel median "
          f"{kernel_median(between) * 1e3:.3f} ms (reference "
          f"{kernel.ref_s * 1e3:.3f} ms); raw ok_per_s "
          f"{raw_ok:.4g}, op_p50_ms {raw_p50:.4g}, op_tail_ms {raw_tail:.4g}, "
          f"setup_s {statistics.median(setups_raw):.4g}")
    return {
        "ok_per_s": (ok_per_s, "1/s"),
        "op_p50_ms": (p50, "ms"),
        "op_tail_ms": (tail, "ms"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (raw["peak_rss_mb"], "MB"),
    }


def per_layer(kernel, untraced, traced):
    import tracer
    (raw_u, between_u), (raw_t, between_t) = untraced, traced
    busy_u = sum(kernel.scale_ops(raw_u["latencies_s"], between_u))
    busy_t = sum(kernel.scale_ops(raw_t["latencies_s"], between_t))
    values = dict(raw_t["layers"])
    values["import.numpy_ms"] = raw_t["import_numpy_ms"]
    values["import.starweyl_ms"] = raw_t["import_starweyl_ms"]
    values["trace.overhead_pct"] = 100.0 * (busy_t / busy_u - 1.0)
    values["bench.kernel_ms"] = kernel_median(between_t) * 1e3
    return {name: (values[name], unit)
            for name, unit in tracer.metric_units().items()}


def measure(args):
    deadline = time.monotonic() + TIMEOUT_S
    os.makedirs(OUT, exist_ok=True)
    try:
        return _measure(args, deadline)
    finally:
        shutil.rmtree(workdir(args), ignore_errors=True)


def _measure(args, deadline):
    # untimed warm-up: compiles bytecode and warms the file cache, so every
    # timed set-up does the same work
    warm = subprocess.run([sys.executable, "-c", "import starweyl"],
                          cwd=ROOT, env=child_env(), timeout=TIMEOUT_S)
    if warm.returncode != 0:
        raise RuntimeError("cannot import starweyl from src/")
    if args.trace:
        inproc = args.workload == "cli"
        untraced = Worker(args, "run", deadline, 0, inproc).run()
        traced = Worker(args, "run", deadline, 1, inproc).run()
        raw = traced[0]
        metrics = per_layer(calibrate.for_workload(args.workload),
                            untraced, traced)
        errors = untraced[0]["errors"] + raw["errors"]
    else:
        setups, setups_raw = [], []
        for _ in range(SETUPS - 1):
            w = Worker(args, "setup", deadline)
            w.close()
            setups.append(w.setup_s)
            setups_raw.append(w.setup_raw_s)
        w = Worker(args, "run", deadline)
        setups.append(w.setup_s)
        setups_raw.append(w.setup_raw_s)
        raw, between = w.run()
        raw["calibration"] = between
        raw["setups_raw_s"] = setups_raw
        metrics = end_to_end(w.kernel, raw, between, setups, setups_raw)
        errors = raw["errors"]
    for err in errors:
        print(f"CHECK FAILED: {err}", file=sys.stderr)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(OUT, name), "w") as fh:
        json.dump({"raw": raw, "metrics": metrics}, fh, indent=1)
    return {
        "correct": not errors,
        "attempted": len(raw["latencies_s"]),
        "failed": sum(raw["failed"]),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=("orbit", "sample",
                                                          "cli"))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="a few operations only (used by selftest.py)")
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "starweyl",
                                       "__init__.py")):
        sys.exit("src/starweyl not found: run from a starweyl checkout")
    try:
        result = measure(args)
    except (RuntimeError, subprocess.SubprocessError, ValueError) as exc:
        sys.exit(f"benchmark failed: {exc}")
    print(json.dumps(result))


if __name__ == "__main__":
    main()
