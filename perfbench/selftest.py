"""Self-test of the benchmark.  Run from the repository root:

    python3 perfbench/selftest.py

1. Every check accepts a real output and rejects a corrupted copy of it:
   a perturbed residue, a lam off by one, a non-semisimple residue, a
   wrong root count, and broken CLI outputs.
2. Each workload runs in smoke mode (a few operations), untraced and
   traced, and prints exactly the metric names BENCHMARK.json lists.
Exits 1 if anything fails.
"""

from __future__ import annotations

import copy
import json
import os
import subprocess
import sys
from dataclasses import replace
from fractions import Fraction

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import checks  # noqa: E402

FAILURES = []


def expect(name, ok):
    print(f"{'ok  ' if ok else 'FAIL'} {name}")
    if not ok:
        FAILURES.append(name)


def rejects(name, fn, *args):
    try:
        fn(*args)
    except checks.CheckError:
        expect(f"rejects {name}", True)
        return
    expect(f"rejects {name}", False)


def accepts(name, fn, *args):
    try:
        fn(*args)
    except checks.CheckError as exc:
        print(f"     {exc}")
        expect(f"accepts {name}", False)
        return
    expect(f"accepts {name}", True)


def bump(lam, i=1):
    vals = list(lam)
    vals[i] += 1
    return tuple(vals)


def corruption_tests():
    from starweyl import (central_reflection, light_translation_basis,
                          sample_system, serialize, translate)
    from starweyl.cli import main as cli_main
    import contextlib
    import io

    t = "E6"
    sysm, lam = sample_system(t, 3)
    res = [np.array(a) for a in sysm.residues]
    accepts("sample system", checks.check_system, t, lam.values, res)
    res_bad = [a.copy() for a in res]
    res_bad[1][0, 1] += 1e-4
    rejects("perturbed residue", checks.check_system, t, lam.values, res_bad)
    rejects("sample lam off by one", checks.check_system, t, bump(lam.values),
            res)
    # a Jordan block with the right characteristic polynomial
    jordan = np.array([[0, 1, 0, 0], [0, 0, 0, 0], [0, 0, 1 / 3, 0],
                       [0, 0, 0, 1 / 3]], dtype=complex)
    spec = [(Fraction(0), 2), (Fraction(1, 3), 2)]
    expect("rejects non-semisimple residue",
           checks.minpoly_residual(jordan, spec) > checks.MINPOLY_TOL)
    expect("accepts its semisimple twin",
           checks.minpoly_residual(np.diag([0, 0, 1 / 3, 1 / 3]).astype(
               complex), spec) <= checks.MINPOLY_TOL)

    once = central_reflection(sysm)
    expect("reflected lam is s_0(lam)",
           once.lam.values == checks.central_reflection_lam(t, lam.values))
    expect("lam off by one is not s_0(lam)",
           bump(once.lam.values) != checks.central_reflection_lam(
               t, lam.values))

    mu = light_translation_basis(sysm.graph)[3]
    start = replace(sysm, tol=max(sysm.tol, 1e-8))
    step = translate(start, mu)
    sig0 = checks.signature(res[:-1])
    step_res = list(step.residues)
    accepts("orbit step", checks.check_orbit_step, t, lam.values, mu.values,
            1, step.lam.values, step_res, sig0)
    rejects("orbit lam off by one", checks.check_orbit_step, t, lam.values,
            mu.values, 1, bump(step.lam.values), step_res, sig0)
    bad = [a.copy() for a in step_res]
    bad[0][1, 0] += 1e-4
    rejects("orbit perturbed residue", checks.check_orbit_step, t,
            lam.values, mu.values, 1, step.lam.values, bad, sig0)
    rejects("orbit signature that did not move", checks.check_orbit_step, t,
            lam.values, mu.values, 1, step.lam.values, step_res,
            checks.signature(step_res[:-1]))

    def cli(*argv):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf), \
                contextlib.redirect_stderr(io.StringIO()):
            code = cli_main(list(argv))
        return code, buf.getvalue()

    code, out = cli("roots", "--type", "E8", "--format", "json")
    doc = json.loads(out)
    accepts("roots E8", checks.check_roots_json, doc, "E8")
    wrong = dict(doc, count=239)
    rejects("wrong root count", checks.check_roots_json, wrong, "E8")
    rejects("missing root", checks.check_roots_json,
            dict(doc, roots=doc["roots"][1:]), "E8")
    rejects("E8 roots read as E7", checks.check_roots_json, doc, "E7")

    sys_doc = json.loads(serialize.dumps(serialize.system_out(sysm)))
    accepts("system JSON", checks.check_system_json, sys_doc, t)
    broken = copy.deepcopy(sys_doc)
    broken["residues"][0][0][0][0] += 1e-4
    rejects("system JSON with perturbed residue", checks.check_system_json,
            broken, t)
    broken = copy.deepcopy(sys_doc)
    broken["lam"]["values"][2] = str(Fraction(broken["lam"]["values"][2]) + 1)
    rejects("system JSON with lam off by one", checks.check_system_json,
            broken, t)

    lam_wall = tuple(Fraction(x) for x in (2, -1, 0, -1, 0, -1, 0))
    report = {"regular": False, "violated": [list(r) for r in
                                             checks.violated_roots(t,
                                                                   lam_wall)]}
    accepts("regular report", checks.check_regular_json, report, t, lam_wall)
    rejects("regular report missing a root", checks.check_regular_json,
            dict(report, violated=report["violated"][1:]), t, lam_wall)

    csv = translate_csv(sysm, mu, cli)
    accepts("orbit CSV", checks.check_orbit_csv, csv, t, lam.values,
            mu.values, 2)
    lines = csv.splitlines()
    cells = lines[2].split(",")
    cells[1] = str(Fraction(cells[1]) + 1)
    rejects("orbit CSV with lam off by one", checks.check_orbit_csv,
            "\n".join(lines[:2] + [",".join(cells)] + lines[3:]), t,
            lam.values, mu.values, 2)

    pts = tuple(Fraction(k, 7) for k in (1, 3, -2, 5, 4, -6, 2, 9, -1))
    mu9 = [1, 0, -1, 0, 0, 1, 0, 0]
    csv = sakai_csv(pts, mu9, cli)
    accepts("sakai r=9 CSV", checks.check_sakai_csv, csv, pts, mu9, 3)
    rejects("sakai r=9 CSV read with another mu", checks.check_sakai_csv,
            csv, pts, [0, 1, -1, 0, 0, 1, 0, 0], 3)
    pts7 = pts[:7]
    mu7 = [1, 0, -2, 0, 1, 0, 0]
    accepts("sakai r=7 CSV", checks.check_sakai_csv, sakai_csv(pts7, mu7, cli),
            pts7, mu7, 3)


def translate_csv(sysm, mu, cli):
    from starweyl import serialize
    path = os.path.join(HERE, "out", "selftest-system.json")
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as fh:
        fh.write(serialize.dumps(serialize.system_out(sysm)))
    try:
        code, out = cli("orbit", "--system", path, "--mu",
                        json.dumps([int(x) for x in mu.values]), "--steps",
                        "2")
    finally:
        os.remove(path)
    return out


def sakai_csv(pts, mu, cli):
    path = os.path.join(HERE, "out", "selftest-config.json")
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as fh:
        json.dump({"schema": "starweyl/config-v1",
                   "points": [str(u) for u in pts]}, fh)
    try:
        code, out = cli("sakai", "--config", path, "--mu", json.dumps(mu),
                        "--steps", "3")
    finally:
        os.remove(path)
    return out


def smoke_tests():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    names = {0: {m["name"] for m in bench["end_to_end"]},
             1: {m["name"] for m in bench["per_layer"]}}
    units = {m["name"]: m["unit"] for m in bench["end_to_end"]
             + bench["per_layer"]}
    for w in (wl["name"] for wl in bench["workloads"]):
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload",
                 w, "--seed", "7", "--seconds", "1", "--trace", str(trace),
                 "--smoke"], cwd=ROOT, capture_output=True, text=True,
                timeout=180)
            label = f"smoke {w} trace {trace}"
            if proc.returncode != 0:
                print(proc.stderr[-2000:])
                expect(f"{label} exits 0", False)
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            expect(f"{label} keys", set(result) == {"correct", "attempted",
                                                    "failed", "metrics"})
            expect(f"{label} correct", result["correct"] is True)
            expect(f"{label} attempted", result["attempted"] >= 1)
            expect(f"{label} metric names match BENCHMARK.json",
                   set(result["metrics"]) == names[trace])
            expect(f"{label} units match BENCHMARK.json",
                   all(units[k] == v["unit"]
                       for k, v in result["metrics"].items()
                       if k in units))
            print(f"     attempted {result['attempted']}, "
                  f"failed {result['failed']}")


def main():
    corruption_tests()
    smoke_tests()
    print(f"{len(FAILURES)} failures")
    sys.exit(1 if FAILURES else 0)


if __name__ == "__main__":
    main()
