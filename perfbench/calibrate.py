"""Machine-speed calibration for the benchmark's parent process.

The host this benchmark was built on changes speed by 10-40% from one
second to the next (other tenants share its cores), so raw times of
identical work spread too widely to compare two commits.  The parent
process, which never imports starweyl, runs a fixed calibration kernel
between operations while the worker waits, and every time the benchmark
reports is scaled by ref_s / (kernel time measured around it).  Reported
times are therefore seconds at the speed at which the kernel takes
ref_s; the raw times are kept in perfbench/out/.

Each workload uses the kernel whose time tracked its own most closely
over one-second blocks (log-time correlation and relative swing, kernel
against workload):

- "compute", small numpy calls (complex 6x6 eig/svd/inv, products,
  traces, Kronecker products, one 36x108 lstsq), for orbit and sample:
  correlation 0.87-0.89, swing 1.0-1.07.  Pure-Python loops (Fraction
  sums, dict updates) swung about 1.5 times as much as the workloads.
- "spawn", one `python3 -S -c pass` process, for cli: correlation 0.95,
  swing 0.78, where the compute kernel had 0.83 and 1.41.
"""

from __future__ import annotations

import statistics
import subprocess
import sys
import time

import numpy as np

NEAR_S = 2.0        # samples this close to an operation scale it
MAX_SAMPLES = 10    # samples at one boundary, at most

_RNG = np.random.default_rng(12345)
_SQUARE = [_RNG.standard_normal((6, 6)) + 1j * _RNG.standard_normal((6, 6))
           for _ in range(4)]
_JAC = _RNG.standard_normal((36, 108))
_RHS = _RNG.standard_normal(36)


def _compute():
    for a in _SQUARE:
        np.linalg.eig(a)
        np.linalg.svd(a)
        np.linalg.inv(a)
        for b in _SQUARE:
            np.trace(a @ b)
            np.kron(a[:2, :2], b[:2, :2])
    np.linalg.lstsq(_JAC, _RHS, rcond=None)


def _spawn():
    subprocess.run([sys.executable, "-S", "-c", "pass"], check=True)


class Kernel:
    """A calibration kernel and the time that defines its reference speed."""

    def __init__(self, name, body, ref_s):
        self.name, self.body, self.ref_s = name, body, ref_s

    def sample(self) -> float:
        t0 = time.perf_counter()
        self.body()
        return time.perf_counter() - t0

    def samples(self, count: int) -> list[float]:
        """count timed runs after one untimed run, so that no sample pays
        for the caches the worker left behind."""
        self.body()
        return [self.sample() for _ in range(count)]

    def samples_after(self, op_s: float) -> list[float]:
        """Samples to take at a boundary after an operation of op_s
        seconds: one per twenty kernel times of operation, so that a long
        operation's own neighbourhood decides its scale."""
        return self.samples(min(MAX_SAMPLES,
                                1 + int(op_s / (20 * self.ref_s))))

    def scale(self, samples_around) -> float:
        """Factor that converts a raw time to reference seconds."""
        return self.ref_s / statistics.median(samples_around)

    def scale_ops(self, latencies, boundaries):
        """Scale each operation time by the kernel samples taken near it.

        boundaries[i] = (time, samples) was recorded just before operation
        i, and the last one after the last operation.  Operation i uses the
        samples of boundaries i and i + 1 and of every boundary within
        NEAR_S seconds of either."""
        out = []
        for i, lat in enumerate(latencies):
            lo = boundaries[i][0] - NEAR_S
            hi = boundaries[i + 1][0] + NEAR_S
            near = [x for j, (t, xs) in enumerate(boundaries)
                    if j in (i, i + 1) or lo <= t <= hi for x in xs]
            out.append(lat * self.scale(near))
        return out


KERNELS = {
    "compute": Kernel("compute", _compute, 0.0015),
    "spawn": Kernel("spawn", _spawn, 0.0135),
}
WORKLOAD_KERNEL = {"orbit": "compute", "sample": "compute", "cli": "spawn"}


def for_workload(workload: str) -> Kernel:
    return KERNELS[WORKLOAD_KERNEL[workload]]
