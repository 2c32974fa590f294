"""Command-line driver: reproducible experiments with file I/O.

Subcommands: roots, regular, sample, apply, orbit, sakai.  All randomness
is seeded, logs go to stderr, data to stdout or --out.  Exit codes:
0 ok, 2 input error, 3 degeneracy or wall error.

The matrix modules (fuchsian, weylops, and numpy with them) and sakai are
imported by the subcommands that call them: roots, regular and sakai run
without numpy, and only the sakai subcommand loads the sakai module.
"""

from __future__ import annotations

import argparse
import atexit
import functools
import gc
import sys

from . import serialize
from .dynkin import (
    AFFINE_TYPES,
    ParamVector,
    StarGraph,
    enumerate_roots,
    hyperplane_count,
    is_regular,
    weight_lattice_member,
)
from .errors import DegeneracyError, InputFormatError
from .ratlin import format_rational
from .tolerances import DEFAULT_TOL, MU_NORM_MAX, SIG_LEN_MAX, STEPS_MAX


def _write(text: str, out):
    if out:
        try:
            with open(out, "w") as fh:
                fh.write(text)
        except OSError as exc:
            raise InputFormatError(f"cannot write {out}: {exc}")
    else:
        sys.stdout.write(text)


def _log(msg: str):
    print(msg, file=sys.stderr)


def _read_json(path: str):
    try:
        with open(path) as fh:
            return serialize.loads(fh.read())
    except OSError as exc:
        raise InputFormatError(f"cannot read {path}: {exc}")


def _int_list(text: str) -> list:
    """The --mu value: a JSON list of integers."""
    doc = serialize.loads(text)
    if not isinstance(doc, list) or not all(type(x) is int for x in doc):
        raise InputFormatError("--mu must be a JSON list of integers")
    return doc


def _in_range(value: int, flag: str, lo: int, hi: float = float("inf")):
    if not lo <= value <= hi:
        raise InputFormatError(
            f"{flag} must be from {lo} to {hi}, got {serialize.echo(value)}")


def _check_mu_norm(values, name: str):
    # every partial sum of a full vector is at most sum |mu_i|, and so is
    # the bound B of the (2B + 1)^(m - 1) move plans translate ranks; a
    # completed extending entry is at most max(delta) times the sum
    _in_range(sum(abs(getattr(x, "re", x)) for x in values), f"sum |{name}|",
              0, MU_NORM_MAX)


def _parse_mu(doc: list, graph: StarGraph, name: str = "--mu") -> ParamVector:
    """A translation vector: orbit's --mu, or the entries of a translate
    tag of apply.  sum |mu_i| is at most MU_NORM_MAX; the vector has an
    entry per node, or one fewer and then gets its extending entry
    completed, and is integral and level zero."""
    _check_mu_norm(doc, name)
    if len(doc) == graph.node_count - 1:
        doc = list(doc) + [graph.extending_entry(doc)]
    if len(doc) != graph.node_count:
        raise InputFormatError(
            f"{name} needs {graph.node_count} (or {graph.node_count - 1}) entries")
    mu = ParamVector(tuple(doc))
    if not weight_lattice_member(graph, mu):
        raise InputFormatError(f"{name} must be integral and level zero")
    return mu


def cmd_roots(args) -> int:
    g = StarGraph.affine(args.type)
    roots = enumerate_roots(g)
    if args.format == "json":
        doc = {"schema": "starweyl/roots-v1", "type": args.type,
               "count": len(roots), "hyperplanes": hyperplane_count(g),
               "roots": [list(r.coords) for r in roots]}
        _write(serialize.dumps(doc), args.out)
    else:
        _write(f"{args.type}: {len(roots)} roots / "
               f"{hyperplane_count(g)} hyperplanes\n", args.out)
    return 0


def cmd_regular(args) -> int:
    doc = _read_json(args.lam_file)
    lam = serialize.lam_in(doc)
    g = StarGraph.affine(args.type)
    if len(lam) != g.node_count:
        raise InputFormatError(
            f"lam has {len(lam)} entries, {args.type} needs {g.node_count}")
    try:
        flag, violated = is_regular(g, lam)
    except ValueError as exc:  # lam off level zero
        raise InputFormatError(str(exc))
    out = {"schema": "starweyl/regular-v1", "type": args.type,
           "regular": flag,
           "violated": [list(r.coords) for r in violated]}
    _write(serialize.dumps(out), args.out)
    return 0


def cmd_sample(args) -> int:
    from .fuchsian import sample_system
    _in_range(args.seed, "--seed", 0)
    serialize.tol_in(args.tol, "--tol")
    sysm, lam = sample_system(args.type, args.seed, tol=args.tol)
    err = sysm.verify()
    _log(f"sampled {args.type} system, seed {args.seed}")
    _log(f"sum check: OK (orbit error {err:.2e})")
    _write(serialize.dumps(serialize.system_out(sysm)), args.out)
    return 0


def cmd_apply(args) -> int:
    from .fuchsian import signature
    from .weylops import apply_word
    sysm = serialize.system_in(_read_json(args.system))
    tags = serialize.word_in(_read_json(args.word))
    word = [("translate", _parse_mu(tag[1], sysm.graph, "translate tag"))
            if tag[0] == "translate" else tag for tag in tags]
    try:
        out = apply_word(sysm, word)
    except ValueError as exc:
        # a generator the system cannot take (node, permutation, shift count)
        raise InputFormatError(f"invalid word: {serialize.echo(exc)}")
    doc = serialize.system_out(out)
    doc["applied_word"] = serialize.word_out(tags)["tags"]
    sig = signature(out, 4)
    doc["signature"] = {"length": sig.length,
                        "values": [[v.real, v.imag] for v in sig.values]}
    _log(f"applied {len(tags)} generators")
    _write(serialize.dumps(doc), args.out)
    return 0


def cmd_orbit(args) -> int:
    from .weylops import dp_orbit
    _in_range(args.steps, "--steps", 0, STEPS_MAX)
    _in_range(args.sig_len, "--sig-len", 1, SIG_LEN_MAX)
    doc = _int_list(args.mu)
    _check_mu_norm(doc, "--mu")  # before the system is read
    sysm = serialize.system_in(_read_json(args.system))
    mu = _parse_mu(doc, sysm.graph)
    rows = dp_orbit(sysm, mu, args.steps, sig_len=args.sig_len)
    _write(serialize.orbit_csv(rows), args.out)
    return 0


def cmd_sakai(args) -> int:
    from .sakai import sakai_orbit
    _in_range(args.steps, "--steps", 0, STEPS_MAX)
    p = serialize.config_in(_read_json(args.config))
    rows = sakai_orbit(p, tuple(_int_list(args.mu)), args.steps)
    # refuse, before any row is written, an entry that str() would refuse
    limit = getattr(sys, "get_int_max_str_digits", int)()  # 0: no limit
    if limit and max(max(abs(u.numerator), u.denominator) for _, cfg, _ in rows
                     for u in cfg.values) >= 10 ** limit:
        raise InputFormatError(f"an orbit entry has more than {limit} digits")
    lines = [",".join(["step"] + [f"u_{i + 1}" for i in range(p.r)] + ["walls"])]
    for k, cfg, walls in rows:
        flag = ";".join(f"{w[0]}{list(w[1])}".replace(" ", "") for w in walls)
        lines.append(",".join([str(k)] + [format_rational(u) for u in cfg.values]
                              + [flag]))
    _write("\n".join(lines) + "\n", args.out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="starweyl",
        description="Affine Weyl symmetries of Fuchsian systems: roots, "
                    "sampling, reflection words, difference-Painleve orbits.")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("roots", help="enumerate the finite root system")
    p.add_argument("--type", required=True, choices=AFFINE_TYPES)
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.add_argument("--out")
    p.set_defaults(func=cmd_roots)

    p = sub.add_parser("regular", help="hyperplane report for a lam file")
    p.add_argument("--type", required=True, choices=AFFINE_TYPES)
    p.add_argument("--lam-file", required=True)
    p.add_argument("--out")
    p.set_defaults(func=cmd_regular)

    p = sub.add_parser("sample", help="sample a random system")
    p.add_argument("--type", required=True, choices=AFFINE_TYPES)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--tol", type=float, default=DEFAULT_TOL)
    p.add_argument("--out")
    p.set_defaults(func=cmd_sample)

    p = sub.add_parser("apply", help="apply a reflection word to a system")
    p.add_argument("--system", required=True)
    p.add_argument("--word", required=True)
    p.add_argument("--out")
    p.set_defaults(func=cmd_apply)

    p = sub.add_parser("orbit", help="difference-Painleve orbit (CSV)")
    p.add_argument("--system", required=True)
    p.add_argument("--mu", required=True,
                   help="integral level-zero vector as a JSON list")
    p.add_argument("--steps", type=int, default=10)
    p.add_argument("--sig-len", type=int, default=3,
                   help=f"signature word length, 1 to {SIG_LEN_MAX}")
    p.add_argument("--out")
    p.set_defaults(func=cmd_orbit)

    p = sub.add_parser("sakai", help="point-configuration orbit (CSV)")
    p.add_argument("--config", required=True)
    p.add_argument("--mu", required=True,
                   help="integer coefficients as a JSON list")
    p.add_argument("--steps", type=int, default=10)
    p.add_argument("--out")
    p.set_defaults(func=cmd_sakai)
    return ap


@functools.cache
def _freeze_heap_at_exit():
    """Register gc.freeze to run at exit, once per process.

    A command's process exits right after main, and interpreter shutdown
    then runs full collections over every tracked object (about 12,800
    after import, 22,000 with numpy), which frozen objects skip.  Until
    exit, collection runs as usual and an in-process caller's GC state is
    not touched.  What is left unreachable is not finalized, so every file
    the commands open is closed by a with block."""
    atexit.register(gc.freeze)


def main(argv=None) -> int:
    _freeze_heap_at_exit()
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return args.func(args)
    except InputFormatError as exc:
        _log(f"input error: {exc}")
        return 2
    except DegeneracyError as exc:
        _log(f"degeneracy: {exc}")
        return 3


if __name__ == "__main__":
    sys.exit(main())
