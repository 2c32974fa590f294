"""Regenerate ORBIT_POOL for workloads.py.

An orbit qualifies when each of its steps runs the move sequence once
(the first plan at the strictest guard succeeds), re-anchors with at
most MAX_GN Gauss-Newton iterations in all, and passes the benchmark's
checks, so every drawn orbit costs about the same and none fails on some
seeds only.  Counts, not timings, decide, so the pool is reproducible.
Orbits that raise or fail a check are listed on stderr.  Run from the
repository root:

    PYTHONPATH=src python3 perfbench/vet_pool.py
"""

from __future__ import annotations

import sys
from dataclasses import replace

import numpy as np

import checks
from starweyl import DegeneracyError, light_translation_basis, sample_system
from starweyl import weylops

STEPS = 8
MAX_GN = 2 * STEPS
PER_TYPE = 12


def main():
    counts = {"moves": 0, "gn": 0}
    run_moves, lstsq = weylops._run_moves, np.linalg.lstsq

    def counted_moves(*args, **kwargs):
        counts["moves"] += 1
        return run_moves(*args, **kwargs)

    def counted_lstsq(*args, **kwargs):
        counts["gn"] += 1
        return lstsq(*args, **kwargs)

    weylops._run_moves, np.linalg.lstsq = counted_moves, counted_lstsq
    pool = []
    for t in ("E6", "E7"):
        found = 0
        for seed in range(100):
            sysm, _ = sample_system(t, seed)
            for v, mu in enumerate(light_translation_basis(sysm.graph)):
                cur = replace(sysm, tol=max(sysm.tol, 1e-8))
                sig = checks.signature(list(cur.residues[:-1]))
                counts.update(moves=0, gn=0)
                try:
                    for k in range(1, STEPS + 1):
                        cur = weylops.translate(cur, mu)
                        sig = checks.check_orbit_step(
                            t, sysm.lam.values, mu.values, k, cur.lam.values,
                            list(cur.residues), sig)
                except (DegeneracyError, checks.CheckError) as exc:
                    print(t, seed, v, f"step {k}:", type(exc).__name__, exc,
                          file=sys.stderr)
                    continue
                print(t, seed, v, counts, file=sys.stderr)
                if counts["moves"] == STEPS and counts["gn"] <= MAX_GN:
                    pool.append((t, seed, v))
                    found += 1
                    break  # one vector per system keeps the pool varied
            if found == PER_TYPE:
                break
    print("ORBIT_POOL = (")
    for entry in pool:
        print(f"    {entry!r},")
    print(")")


if __name__ == "__main__":
    main()
