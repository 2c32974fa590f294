"""Inputs and operations of the three workloads.

Every workload is a fixed list of operations per round, built from the
benchmark seed.  `prepare_*` is the set-up (input generation after the
import); `run_*` executes one round, timing each operation alone and
checking its output after the clock stops.  Operations run one at a time
(a closed loop with a single client); `pace` is called before each one
and lets the parent sample the machine speed.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import subprocess
import sys
import time
from dataclasses import dataclass, replace
from fractions import Fraction

import checks

TYPES = ("D4", "E6", "E7", "E8")

# orbit: criterion 10's four orbits at its full 50 steps, plus E8 seed 2
# along basis vector 2, whose step 4 raises DegeneracyError away from any
# wall.  Entries are (type, sample seed, light-basis vector, steps).
ORBIT_CORE = (
    ("D4", 23, 0, 50),
    ("E6", 23, 3, 50),
    ("E7", 23, 0, 50),
    ("E8", 11, 0, 50),
    ("E8", 2, 2, 4),
)
# orbits whose every step succeeds on the first move plan, re-anchors
# cheaply and passes the checks (vet_pool.py writes this list); the seed
# draws ORBIT_DRAWN_PER_TYPE E6 and as many E7 orbits per run
ORBIT_POOL = (
    ("E6", 0, 0), ("E6", 1, 0), ("E6", 2, 0), ("E6", 3, 2), ("E6", 4, 1),
    ("E6", 6, 1), ("E6", 7, 0), ("E6", 8, 0), ("E6", 9, 3), ("E6", 11, 0),
    ("E6", 12, 4), ("E6", 13, 4),
    ("E7", 0, 1), ("E7", 1, 0), ("E7", 2, 1), ("E7", 3, 0), ("E7", 4, 2),
    ("E7", 5, 4), ("E7", 7, 2), ("E7", 8, 1), ("E7", 11, 3), ("E7", 12, 2),
    ("E7", 13, 0), ("E7", 15, 1),
)
# steps whose output is known to be wrong today: on criterion 10's E8
# orbit, residue 0 after steps 21 and 22 is not semisimple (minimal
# polynomial residual about 1e-2) although verify() accepts it.  They
# count as failed operations; any other check failure makes the run
# incorrect.
KNOWN_WRONG_STEPS = {("E8/11/0", 21), ("E8/11/0", 22)}
ORBIT_DRAWN_PER_TYPE = 4
ORBIT_DRAWN_STEPS = 8
ORBIT_SIG_LEN = 3          # the signature length dp_orbit emits

SAMPLE_SEEDS = range(100)  # the range criterion 5 covers

CLI_ORBIT_STEPS = 5
CLI_SAKAI_STEPS = 30
SAKAI_DENOMINATORS = (2, 3, 4, 5, 7, 8, 9, 11, 13)

# nominal seconds of one round on the reference machine; a run does
# max(1, round(seconds / nominal)) whole rounds
ROUND_SECONDS = {"orbit": 24.0, "sample": 16.0, "cli": 3.4}


def rounds_for(workload: str, seconds: float) -> int:
    return max(1, round(seconds / ROUND_SECONDS[workload]))


@dataclass
class OpResult:
    label: str
    latency_s: float
    failed: bool = False


class Tally:
    """Latencies, failures and the first check failures of a run."""

    def __init__(self):
        self.ops: list[OpResult] = []
        self.errors: list[str] = []

    def record(self, label, latency_s, failed=False):
        self.ops.append(OpResult(label, latency_s, failed))

    def fail_last(self):
        self.ops[-1].failed = True

    def check(self, what, fn, *args):
        try:
            fn(*args)
        except checks.CheckError as exc:
            if len(self.errors) < 20:
                self.errors.append(f"{what}: {exc}")


# ---------------------------------------------------------------------------
# orbit


@dataclass
class OrbitInput:
    label: str
    type_name: str
    start: object          # FuchsianSystem with the dp_orbit tolerance
    mu: object             # ParamVector
    steps: int


def orbit_plan(seed: int, smoke: bool = False):
    """(type, seed, vector, steps) list of one round, in run order."""
    rng = random.Random(f"perfbench/orbit/{seed}")
    if smoke:
        plan = [("E6", 23, 3, 3), ("E8", 2, 2, 4)]
    else:
        drawn = [d for t in ("E6", "E7") for d in rng.sample(
            [p for p in ORBIT_POOL if p[0] == t], ORBIT_DRAWN_PER_TYPE)]
        plan = list(ORBIT_CORE) + [d + (ORBIT_DRAWN_STEPS,) for d in drawn]
    rng.shuffle(plan)
    return plan


def prepare_orbit(seed: int, pace, smoke: bool = False):
    from starweyl import light_translation_basis, sample_system
    inputs = []
    for t, s, v, steps in orbit_plan(seed, smoke):
        pace()
        sysm, _ = sample_system(t, s)
        mu = light_translation_basis(sysm.graph)[v]
        checks.check_translation_vector(t, mu.values)
        start = replace(sysm, tol=max(sysm.tol, 1e-8))
        inputs.append(OrbitInput(f"{t}/{s}/{v}", t, start, mu, steps))
    return inputs


def run_orbit(inputs, tally: Tally, pace):
    from starweyl import DegeneracyError, signature, translate
    for inp in inputs:
        cur = inp.start
        lam0 = cur.lam.values
        prev_sig = checks.signature(list(cur.residues[:-1]))
        for k in range(1, inp.steps + 1):
            pace()
            t0 = time.perf_counter()
            try:
                cur = translate(cur, inp.mu)
                signature(cur, ORBIT_SIG_LEN)
            except DegeneracyError as exc:
                tally.record(f"{inp.label}#{k}", time.perf_counter() - t0,
                             failed=True)
                print(f"orbit {inp.label} step {k} failed: {exc}",
                      file=sys.stderr)
                break
            tally.record(f"{inp.label}#{k}", time.perf_counter() - t0)
            try:
                prev_sig = checks.check_orbit_step(
                    inp.type_name, lam0, inp.mu.values, k, cur.lam.values,
                    list(cur.residues), prev_sig)
            except checks.CheckError as exc:
                if (inp.label, k) not in KNOWN_WRONG_STEPS:
                    tally.errors.append(f"orbit {inp.label} step {k}: {exc}")
                    break
                tally.fail_last()
                print(f"orbit {inp.label} step {k} output is wrong: {exc}",
                      file=sys.stderr)
                prev_sig = checks.signature(list(cur.residues[:-1]))


# ---------------------------------------------------------------------------
# sample


def sample_plan(seed: int, smoke: bool = False):
    seeds = range(2) if smoke else SAMPLE_SEEDS
    plan = [(t, s) for t in TYPES for s in seeds]
    random.Random(f"perfbench/sample/{seed}").shuffle(plan)
    return plan


def prepare_sample(seed: int, smoke: bool = False):
    import starweyl  # noqa: F401  (the import is part of the set-up)
    return sample_plan(seed, smoke)


def _check_sample_op(t, sysm, lam, once, twice):
    checks.check_system(t, lam.values, list(sysm.residues), list(sysm.offsets))
    want = checks.central_reflection_lam(t, lam.values)
    if once.lam.values != want:
        raise checks.CheckError("reflected lam is not s_0(lam)")
    checks.check_system(t, once.lam.values, list(once.residues),
                        list(once.offsets))
    if twice.lam.values != lam.values:
        raise checks.CheckError("two reflections do not restore lam")
    dist = checks.signature_distance(
        checks.signature(list(sysm.residues[:-1]), 4),
        checks.signature(list(twice.residues[:-1]), 4))
    if dist > checks.SIG_RETURN_TOL:
        raise checks.CheckError(f"signature after two reflections moved "
                                f"by {dist:.2e}")


def run_sample(plan, tally: Tally, pace):
    from starweyl import central_reflection, sample_system
    for t, s in plan:
        pace()
        t0 = time.perf_counter()
        sysm, lam = sample_system(t, s)
        once = central_reflection(sysm)
        twice = central_reflection(once)
        tally.record(f"{t}/{s}", time.perf_counter() - t0)
        tally.check(f"sample {t}/{s}", _check_sample_op, t, sysm, lam, once,
                    twice)


# ---------------------------------------------------------------------------
# cli


def _random_lam_on_a_wall(t, rng):
    """Level-zero rational lam put on the hyperplane of one random root."""
    size = len(checks.cartan(t))
    lam = [Fraction(rng.randint(-30, 30), rng.choice((2, 3, 5, 7)))
           for _ in range(size - 1)]
    root = rng.choice(checks.positive_roots(t))
    i = next(k for k, c in enumerate(root) if c)
    rest = checks.pairing(root, lam) - root[i] * lam[i]
    lam[i] = -rest / root[i]
    d = checks.delta(t)
    lam.append(-sum((dk * v for dk, v in zip(d, lam)), Fraction(0)) / d[-1])
    return tuple(lam)


@dataclass
class CliOp:
    label: str              # subcommand, then type or point count
    argv: list
    verify: object          # callable(stdout, out_path) raising CheckError
    out: str | None = None

    @property
    def kind(self):
        return self.argv[0]


def cli_plan(seed: int, workdir: str, rounds: int, pace, smoke: bool = False):
    """Commands of every round plus the files they read, written now:
    roots for all four types, regular, sample, apply, a short clean
    orbit, sakai three times for r = 9 and once for r <= 8."""
    from starweyl import StarGraph, light_translation_basis, sample_system
    from starweyl import serialize
    rng = random.Random(f"perfbench/cli/{seed}")
    os.makedirs(workdir, exist_ok=True)
    # the same basis work whichever pool entries the seed draws
    bases = {t: light_translation_basis(StarGraph.affine(t))
             for t in sorted({entry[0] for entry in ORBIT_POOL})}

    def path(name):
        return os.path.join(workdir, name)

    def write(name, doc):
        with open(path(name), "w") as fh:
            fh.write(json.dumps(doc))
        return path(name)

    word = write("central.json", {"schema": "starweyl/word-v1",
                                  "tags": [["central"]]})
    plan = []
    for r in range(rounds):
        pace()
        t = TYPES[r % 4]
        ops = []

        def add(label, argv, verify, out=None):
            ops.append(CliOp(label, argv, verify, out))

        for rt in TYPES:
            add(f"roots {rt}", ["roots", "--type", rt, "--format", "json"],
                lambda so, out, rt=rt: checks.check_roots_json(
                    json.loads(so), rt))
        lam = _random_lam_on_a_wall(t, rng)
        lam_file = write(f"lam{r}.json", {"schema": "starweyl/lam-v1",
                                          "values": [str(v) for v in lam]})
        add(f"regular {t}", ["regular", "--type", t, "--lam-file", lam_file],
            lambda so, out, t=t, lam=lam: checks.check_regular_json(
                json.loads(so), t, lam))
        out = path(f"sample{r}.json")
        add(f"sample {t}", ["sample", "--type", t, "--seed",
                            str(rng.choice(SAMPLE_SEEDS)), "--out", out],
            lambda so, out, t=t: checks.check_system_json(_read_json(out), t),
            out)
        sysm, lam_a = sample_system(t, rng.choice(SAMPLE_SEEDS))
        sys_file = write(f"apply_in{r}.json", serialize.system_out(sysm))
        out = path(f"apply{r}.json")
        add(f"apply {t}", ["apply", "--system", sys_file, "--word", word,
                           "--out", out],
            lambda so, out, t=t, lam=lam_a.values: _check_apply(
                _read_json(out), t, lam),
            out)
        ot, os_, ov = rng.choice(ORBIT_POOL)
        osys, olam = sample_system(ot, os_)
        mu = bases[ot][ov].values
        orbit_file = write(f"orbit_in{r}.json", serialize.system_out(osys))
        add(f"orbit {ot}", ["orbit", "--system", orbit_file, "--mu",
                            json.dumps([int(x) for x in mu]), "--steps",
                            str(CLI_ORBIT_STEPS)],
            lambda so, out, ot=ot, lam=olam.values, mu=mu:
                checks.check_orbit_csv(so, ot, lam, mu, CLI_ORBIT_STEPS))
        for size in (9, 9, 9, 6 + r % 3):
            # a fixed set of denominators keeps the Fraction sizes, and so
            # the cost, the same for every seed
            dens = rng.sample(SAKAI_DENOMINATORS, size)
            pts = tuple(Fraction(rng.randint(-40, 40), d) for d in dens)
            if size == 9:
                mu_s = [rng.randint(-1, 1) for _ in range(8)]
                mu_s[rng.randrange(8)] = rng.choice((-1, 1))
            else:
                mu_s = [rng.randint(-2, 2) for _ in range(size)]
            cfg = write(f"cfg{r}_{len(ops)}.json",
                        {"schema": "starweyl/config-v1",
                         "points": [str(u) for u in pts]})
            add(f"sakai r={size}", ["sakai", "--config", cfg, "--mu",
                                    json.dumps(mu_s), "--steps",
                                    str(CLI_SAKAI_STEPS)],
                lambda so, out, pts=pts, mu_s=mu_s: checks.check_sakai_csv(
                    so, pts, mu_s, CLI_SAKAI_STEPS))
        if smoke:
            ops = [op for op in ops if op.kind != "roots"] + ops[:1]
        rng.shuffle(ops)
        plan.extend(ops)
    return plan


def _read_json(path):
    with open(path) as fh:
        return json.load(fh)


def _check_apply(doc, t, lam_in):
    _, lam, _ = checks.check_system_json(doc, t)
    if lam != checks.central_reflection_lam(t, lam_in):
        raise checks.CheckError("apply: lam is not s_0 of the input lam")


CLI_COMMAND = ("import sys; from starweyl.cli import main; "
               "sys.exit(main())")


def run_cli(plan, tally: Tally, pace, inproc: bool = False, tracer=None):
    """Each command as a fresh `starweyl` process, or, for the traced run
    and its untraced reference, as an in-process call of cli.main.
    Returns the peak resident set size of the command processes in KiB."""
    import resource
    main = None
    if inproc:
        from starweyl import cli
        main = cli.main
    for op in plan:
        if op.out and os.path.exists(op.out):
            os.remove(op.out)
        pace()
        t0 = time.perf_counter()
        if inproc:
            stdout, code = _call_main(main, op, tracer)
        else:
            proc = subprocess.run([sys.executable, "-c", CLI_COMMAND]
                                  + op.argv, stdout=subprocess.PIPE,
                                  stderr=subprocess.PIPE, text=True)
            stdout, code = proc.stdout, proc.returncode
        latency = time.perf_counter() - t0
        tally.record(op.label, latency, failed=code != 0)
        if code != 0:
            print(f"cli {' '.join(op.argv)} exited {code}", file=sys.stderr)
            continue
        tally.check(f"cli {op.kind}", op.verify, stdout, op.out)
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss


def _call_main(main, op, tracer):
    buf = io.StringIO()
    if tracer:
        tracer.enter(f"cli.main.{op.kind}")
    try:
        with contextlib.redirect_stdout(buf), \
                contextlib.redirect_stderr(io.StringIO()):
            code = main(op.argv)
    except SystemExit as exc:
        code = exc.code
    finally:
        if tracer:
            tracer.leave()
    return buf.getvalue(), code
