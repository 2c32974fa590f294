"""Versioned JSON schemas shared by the library and the CLI.

Exact scalars (lam, nu, offsets, word shifts) are "p/q" strings (Gaussian
rationals "a/b+c/di") and are read from such strings or JSON integers
only; complex floats (poles, residues) are [re, im] pairs, complex
matrices nested lists of such pairs.  Every emitted document round-trips
losslessly: exact fields stay exact, floats go through repr (shortest
round-trip form).  Readers raise InputFormatError on malformed input.

Only the matrix and system readers and writers load numpy and the
matrix modules, so the exact formats (lam, config, word, tolerances),
the orbit CSV and the JSON layer run on the standard library.  Only the
config reader loads sakai.
"""

from __future__ import annotations

import itertools
import json
from fractions import Fraction
from typing import TYPE_CHECKING

from .dynkin import AFFINE_LEGS, ParamVector, StarGraph
from .errors import InputFormatError
from .ratlin import GaussianRational, format_rational, parse_rational
from .tolerances import DEFAULT_TOL, MAX_TOL, SUM_TOL

if TYPE_CHECKING:
    import numpy as np

    from .fuchsian import FuchsianSystem
    from .sakai import PointConfig

SYSTEM_SCHEMA = "starweyl/system-v1"
CONFIG_SCHEMA = "starweyl/config-v1"
WORD_SCHEMA = "starweyl/word-v1"
LAM_SCHEMA = "starweyl/lam-v1"

# characters of outside input echoed in an input-error line
ECHO_MAX = 80


def echo(x) -> str:
    """x for an input-error line: its repr, or the str of a Fraction or an
    exception (whose message may quote the input), cut to ECHO_MAX
    characters and "…", so the line stays short however long the input."""
    try:
        text = str(x) if isinstance(x, (BaseException, Fraction)) else repr(x)
    except ValueError:  # an integer past the int-to-str digit limit
        text = "a number too long to print"
    return text if len(text) <= ECHO_MAX else text[:ECHO_MAX] + "…"


def _scalar_in(x):
    """An exact scalar from a "p/q" string or a JSON integer."""
    if isinstance(x, str):
        try:
            return parse_rational(x)
        except (ValueError, ZeroDivisionError) as exc:
            raise InputFormatError(f"cannot parse rational {echo(x)}: {echo(exc)}")
    if isinstance(x, int) and not isinstance(x, bool):
        return Fraction(x)
    raise InputFormatError(f"expected a \"p/q\" string or an integer, got {echo(x)}")


def tol_in(x, name: str = "tol") -> float:
    """A verification tolerance: a number (not a boolean or a string) in
    (0, MAX_TOL]."""
    if isinstance(x, bool) or not isinstance(x, (int, float)):
        raise InputFormatError(f"{name} must be a number, got {echo(x)}")
    tol = float(x)
    if not 0 < tol <= MAX_TOL:
        raise InputFormatError(
            f"{name} must be positive and at most {MAX_TOL:g}, got {tol}")
    return tol


def matrix_out(a) -> list:
    import numpy as np
    return [[[float(z.real), float(z.imag)] for z in row]
            for row in np.asarray(a, dtype=complex)]


def _pair_in(x) -> complex:
    """A complex float from an [re, im] pair of JSON numbers (no booleans)."""
    if type(x) is not list or len(x) != 2 or \
            not all(type(v) in (int, float) for v in x):
        raise InputFormatError(
            f"expected an [re, im] pair of numbers, got {echo(x)}")
    return complex(*x)


def matrix_in(rows) -> np.ndarray:
    import numpy as np
    try:
        return np.array([[_pair_in(c) for c in row] for row in rows],
                        dtype=complex)
    except (TypeError, OverflowError) as exc:
        raise InputFormatError(f"malformed complex matrix: {exc}")


def lam_out(lam: ParamVector) -> dict:
    return {"schema": LAM_SCHEMA, "field": lam.field,
            "values": [format_rational(v) for v in lam.values]}


def lam_in(doc) -> ParamVector:
    """A lam document's vector; its field, where given, must be the one
    the values give."""
    if not isinstance(doc, dict) or doc.get("schema") != LAM_SCHEMA:
        raise InputFormatError(f"expected a {LAM_SCHEMA} document")
    if not isinstance(doc.get("values"), list):
        raise InputFormatError("parameter document needs a 'values' list")
    lam = ParamVector(tuple(_scalar_in(v) for v in doc["values"]))
    if "field" in doc and doc["field"] != lam.field:
        raise InputFormatError(f"field {echo(doc['field'])} does not match the "
                               f"values, which give {lam.field!r}")
    return lam


def system_out(sys: FuchsianSystem) -> dict:
    return {
        "schema": SYSTEM_SCHEMA,
        "type": sys.graph.affine_type,
        "legs": list(sys.graph.legs),
        "poles": [[p.real, p.imag] for p in sys.poles],
        "nu": format_rational(sys.nu),
        "lam": lam_out(sys.lam),
        "offsets": [format_rational(o) for o in sys.offsets],
        "normalization": sys.normalization,
        "tol": sys.tol,
        "residues": [matrix_out(a) for a in sys.residues],
    }


def system_in(doc) -> FuchsianSystem:
    """The verified system of a document: a malformed one raises
    InputFormatError, residues off their orbits DegeneracyError.  The
    system is built from legs, poles, lam, offsets, tol and the finite
    residues; the last residue, nu, type and normalization, where given,
    must match what those derive (the last residue to SUM_TOL of the
    residues' total norm), else InputFormatError."""
    import numpy as np

    from .fuchsian import make_system
    if not isinstance(doc, dict) or doc.get("schema") != SYSTEM_SCHEMA:
        raise InputFormatError(f"expected a {SYSTEM_SCHEMA} document")
    try:
        legs = doc["legs"]
        if not isinstance(legs, list) or any(type(x) is not int for x in legs):
            raise InputFormatError("legs must be a list of JSON integers")
        legs = tuple(legs)
        if legs not in AFFINE_LEGS.values():
            raise InputFormatError(
                f"legs {echo(list(legs))} are not an affine signature")
        graph = StarGraph(legs)
        n = graph.delta[graph.center]
        poles = tuple(_pair_in(p) for p in doc["poles"])
        lam = lam_in(doc["lam"])
        if not isinstance(doc["offsets"], list):
            raise InputFormatError("offsets must be a list")
        offsets = tuple(_scalar_in(o) for o in doc["offsets"])
        residues = [matrix_in(m) for m in doc["residues"]]
        tol = tol_in(doc.get("tol", DEFAULT_TOL))
        if len(residues) != graph.num_legs or \
                any(a.shape != (n, n) for a in residues):
            raise InputFormatError(f"legs {list(legs)} need {graph.num_legs} "
                                   f"residues of size {n} x {n}")
        if not (np.isfinite(poles).all() and np.isfinite(residues).all()):
            raise InputFormatError("poles and residues must be finite")
        # Schlesinger moves divide by pole differences and by their ratios;
        # equal poles are left to verify()
        diffs = [a - b for a, b in itertools.combinations(poles, 2)] + [1]
        if all(diffs) and not np.isfinite([d / e for d in diffs
                                           for e in diffs]).all():
            raise InputFormatError("pole differences, their reciprocals and "
                                   "their ratios must be finite")
        sysm = make_system(graph, poles, residues[:-1], lam, offsets=offsets,
                           tol=tol)
    except (KeyError, TypeError, ValueError, IndexError, OverflowError) as exc:
        raise InputFormatError(f"malformed system document: {exc}")
    # what system_out writes beyond the independent data must agree with
    # what the system derives from that data
    scale = max(1.0, sum(float(np.linalg.norm(a)) for a in residues))
    if float(np.linalg.norm(residues[-1] - sysm.residues[-1])) > SUM_TOL * scale:
        raise InputFormatError("residues do not sum to nu * Id")
    if "nu" in doc and _scalar_in(doc["nu"]) != sysm.nu:
        raise InputFormatError(f"nu {echo(doc['nu'])} does not match lam and "
                               f"offsets, which give {format_rational(sysm.nu)}")
    for key, derived in (("type", graph.affine_type),
                         ("normalization", sysm.normalization)):
        if key in doc and doc[key] != derived:
            raise InputFormatError(f"{key} {echo(doc[key])} does not match the "
                                   f"document's data, which gives {derived!r}")
    return sysm


def config_in(doc) -> PointConfig:
    from .sakai import PointConfig
    if not isinstance(doc, dict) or doc.get("schema") != CONFIG_SCHEMA:
        raise InputFormatError(f"expected a {CONFIG_SCHEMA} document")
    if not isinstance(doc.get("points"), list):
        raise InputFormatError("a configuration needs a 'points' list")
    vals = tuple(_scalar_in(s) for s in doc["points"])
    if any(isinstance(v, GaussianRational) for v in vals):
        raise InputFormatError("point configurations are rational tuples")
    try:
        return PointConfig(vals)
    except ValueError as exc:
        raise InputFormatError(f"malformed configuration: {exc}")


def orbit_csv(rows) -> str:
    """dp_orbit rows (k, lam_k, signature_k) as CSV: the step, the exact
    parameters and then the (re, im) float pairs of the signature."""
    width = len(rows[0][2].values)
    lines = [",".join(["step"] + [f"lam_{i}" for i in range(len(rows[0][1]))]
                      + [x for k in range(width)
                         for x in (f"sig{k}_re", f"sig{k}_im")])]
    for k, lam, sig in rows:
        lines.append(",".join([str(k)] + [format_rational(v) for v in lam.values]
                              + [repr(x) for v in sig.values
                                 for x in (v.real, v.imag)]))
    return "\n".join(lines) + "\n"


def word_out(tags) -> dict:
    out = []
    for tag in tags:
        if tag[0] in ("tensor", "relabel", "translate"):
            out.append([tag[0], [int(x) if isinstance(x, int)
                                 else format_rational(x) for x in tag[1]]])
        elif tag[0] == "leg":
            out.append(["leg", int(tag[1])])
        else:
            out.append([tag[0]])
    return {"schema": WORD_SCHEMA, "tags": out}


# elements of each word tag, its name included
_TAG_LENGTHS = {"leg": 2, "central": 1, "tensor": 2, "relabel": 2,
                "translate": 2}


def word_in(doc):
    if not isinstance(doc, dict) or doc.get("schema") != WORD_SCHEMA:
        raise InputFormatError(f"expected a {WORD_SCHEMA} document")
    if not isinstance(doc.get("tags", []), list):
        raise InputFormatError("a word's tags must be a list")
    tags = []
    for tag in doc.get("tags", []):
        try:
            kind = tag[0]
            if not isinstance(kind, str) or kind not in _TAG_LENGTHS:
                raise InputFormatError(f"unknown word tag {echo(kind)}")
            if len(tag) != _TAG_LENGTHS[kind]:
                raise ValueError(f"the tag length must be {_TAG_LENGTHS[kind]}")
            if kind == "leg":
                if type(tag[1]) is not int:
                    raise ValueError("the node must be a JSON integer")
                tags.append(("leg", tag[1]))
            elif kind == "central":
                tags.append(("central",))
            elif not isinstance(tag[1], list):
                raise ValueError("the entries must be a list")
            elif kind == "relabel":
                if any(type(x) is not int for x in tag[1]):
                    raise ValueError("a leg permutation takes JSON integers")
                tags.append(("relabel", tuple(tag[1])))
            else:
                vals = tuple(x if type(x) is int else _scalar_in(x)
                             for x in tag[1])
                if kind == "tensor":  # shifts are added to complex floats
                    for v in vals:
                        complex(v)  # OverflowError beyond the float range
                tags.append((kind, vals))
        except (IndexError, KeyError, TypeError, ValueError, OverflowError) as exc:
            raise InputFormatError(f"malformed word tag {echo(tag)}: {exc}")
    return tuple(tags)


def dumps(doc) -> str:
    return json.dumps(doc, indent=1, sort_keys=False) + "\n"


def loads(text: str):
    try:
        return json.loads(text)
    except ValueError as exc:  # JSONDecodeError, or an over-long integer
        raise InputFormatError(f"invalid JSON: {exc}")
