"""Correctness checks computed apart from starweyl.

Nothing here imports the package under test: the star graphs, the
imaginary root delta, the finite roots, the central reflection, the
residue eigenvalues predicted by lam, and the trace-word signatures are
all rebuilt from the leg lengths with fractions and numpy.  Every check
raises CheckError with a message naming what failed.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from functools import lru_cache

import numpy as np

LEGS = {"D4": (1, 1, 1, 1), "E6": (2, 2, 2), "E7": (1, 3, 3), "E8": (1, 2, 5)}
ROOT_COUNTS = {"D4": (24, 12), "E6": (72, 36), "E7": (126, 63), "E8": (240, 120)}

SUM_TOL = 1e-9        # ||sum A_i - nu I|| relative to the residue scale
EIG_TOL = 1e-6        # eigenvalue mismatch relative to the eigenvalue scale
MINPOLY_TOL = 1e-9    # ||prod (A - xi_k)|| relative to max(1, ||A||)^width
SIG_RETURN_TOL = 1e-6  # signature distance after an involution
SIG_MOVE_TOL = 1e-6    # signature distance that counts as a move


class CheckError(AssertionError):
    pass


def _require(cond, msg):
    if not cond:
        raise CheckError(msg)


# ---------------------------------------------------------------------------
# star graphs, delta and roots


def leg_nodes(legs, j):
    start = 1 + sum(legs[:j])
    return list(range(start, start + legs[j]))


@lru_cache(maxsize=None)
def cartan(type_name):
    legs = LEGS[type_name]
    size = 1 + sum(legs)
    c = [[2 if i == j else 0 for j in range(size)] for i in range(size)]
    for j in range(len(legs)):
        prev = 0
        for node in leg_nodes(legs, j):
            c[node][prev] = c[prev][node] = -1
            prev = node
    return tuple(tuple(row) for row in c)


@lru_cache(maxsize=None)
def delta(type_name):
    """Imaginary root: centre lcm(k+1), falling linearly to zero past the
    end of each leg of length k."""
    legs = LEGS[type_name]
    n = math.lcm(*(k + 1 for k in legs))
    vals = [n] + [0] * sum(legs)
    for j, k in enumerate(legs):
        for pos, node in enumerate(leg_nodes(legs, j), start=1):
            vals[node] = n * (k + 1 - pos) // (k + 1)
    c = cartan(type_name)
    if any(sum(ci * v for ci, v in zip(row, vals)) for row in c):
        raise CheckError(f"{type_name}: delta is not in the kernel of C")
    return tuple(vals)


@lru_cache(maxsize=None)
def positive_roots(type_name):
    """Positive roots of the finite system on the non-extending nodes, grown
    by height: for a simply-laced system, beta + alpha_i is a root exactly
    when (beta, alpha_i) = -1."""
    c = cartan(type_name)
    r = len(c) - 1
    simple = [tuple(int(k == i) for k in range(r)) for i in range(r)]
    found = set(simple)
    layer = list(simple)
    while layer:
        nxt = []
        for beta in layer:
            for i in range(r):
                form = sum(c[i][j] * beta[j] for j in range(r))
                if form == -1:
                    up = tuple(b + (k == i) for k, b in enumerate(beta))
                    if up not in found:
                        found.add(up)
                        nxt.append(up)
        layer = nxt
    return tuple(sorted(found))


def all_roots(type_name):
    pos = positive_roots(type_name)
    return set(pos) | {tuple(-x for x in b) for b in pos}


def pairing(root, lam):
    return sum((c * lam[i] for i, c in enumerate(root)), Fraction(0))


def level(type_name, lam):
    return sum((d * v for d, v in zip(delta(type_name), lam)), Fraction(0))


def central_reflection_lam(type_name, lam):
    """r_0(lam) = lam - lam_0 * (row 0 of the Cartan matrix)."""
    row = cartan(type_name)[0]
    return tuple(v - lam[0] * c for v, c in zip(lam, row))


def violated_roots(type_name, lam):
    return {b for b in all_roots(type_name) if pairing(b, lam) == 0}


# ---------------------------------------------------------------------------
# residues


def predicted_eigenvalues(type_name, lam, offsets=None):
    """Per pole: ordered (eigenvalue, multiplicity) pairs.  The first
    eigenvalue is the pole's offset, then the negated partial sums of lam
    along the leg; multiplicities are the drops of delta along the leg."""
    legs = LEGS[type_name]
    d = delta(type_name)
    offsets = offsets or [Fraction(0)] * len(legs)
    out = []
    for j in range(len(legs)):
        nodes = leg_nodes(legs, j)
        dims = [d[0]] + [d[k] for k in nodes] + [0]
        val = Fraction(offsets[j])
        entries = []
        for pos in range(len(dims) - 1):
            entries.append((val, dims[pos] - dims[pos + 1]))
            if pos < len(nodes):
                val -= lam[nodes[pos]]
        out.append(entries)
    return out


def _match_eigenvalues(a, entries):
    expected = [complex(v) for v, m in entries for _ in range(m)]
    got = list(np.linalg.eigvals(a))
    scale = max(1.0, max(abs(x) for x in expected))
    worst = 0.0
    for x in expected:
        k = min(range(len(got)), key=lambda i: abs(got[i] - x))
        worst = max(worst, abs(got.pop(k) - x))
    return worst / scale


def minpoly_residual(a, entries):
    """||prod_k (A - xi_k)|| over the distinct eigenvalues, relative to
    max(1, ||A||)^width: zero exactly when A is semisimple with these
    eigenvalues."""
    n = a.shape[0]
    acc = np.eye(n, dtype=complex)
    for v, _ in entries:
        acc = acc @ (a - complex(v) * np.eye(n))
    scale = max(1.0, float(np.linalg.norm(a))) ** len(entries)
    return float(np.linalg.norm(acc)) / scale


def check_residues(type_name, lam, residues, offsets=None):
    """Residues sum to nu * Id, and each one is semisimple with the
    eigenvalues lam predicts.  Returns the worst eigenvalue error."""
    legs = LEGS[type_name]
    _require(len(residues) == len(legs),
             f"{type_name}: {len(residues)} residues, expected {len(legs)}")
    n = delta(type_name)[0]
    offsets = offsets or [Fraction(0)] * len(legs)
    nu = lam[0] + sum(offsets, Fraction(0))
    scale = max(1.0, sum(float(np.linalg.norm(a)) for a in residues))
    total = sum(residues) - complex(nu) * np.eye(n)
    err = float(np.linalg.norm(total)) / scale
    _require(err <= SUM_TOL, f"residues do not sum to nu*I ({err:.2e})")
    worst = 0.0
    for j, (a, entries) in enumerate(zip(residues, predicted_eigenvalues(
            type_name, lam, offsets))):
        _require(a.shape == (n, n), f"residue {j} has shape {a.shape}")
        s = minpoly_residual(a, entries)
        _require(s <= MINPOLY_TOL,
                 f"residue {j} is not semisimple (minimal polynomial {s:.2e})")
        e = _match_eigenvalues(a, entries)
        _require(e <= EIG_TOL, f"residue {j} eigenvalues off by {e:.2e}")
        worst = max(worst, e)
    return worst


def signature(finite, length=3):
    """Traces of all words of length 1..L in the finite residues."""
    vals = []
    for ell in range(1, length + 1):
        for word in itertools.product(range(len(finite)), repeat=ell):
            acc = finite[word[0]]
            for i in word[1:]:
                acc = acc @ finite[i]
            vals.append(complex(np.trace(acc)))
    return np.array(vals)


def signature_distance(a, b):
    return float(np.max(np.abs(a - b))) / max(1.0, float(np.max(np.abs(a))))


def check_regular_lam(type_name, lam):
    _require(len(lam) == len(cartan(type_name)),
             f"{type_name}: lam has {len(lam)} entries")
    _require(level(type_name, lam) == 0, "lam is not level zero")
    for b in positive_roots(type_name):
        _require(pairing(b, lam) != 0, f"lam lies on the root hyperplane of {b}")


def check_system(type_name, lam, residues, offsets=None):
    """Sample checks: regular level-zero lam plus the residue checks."""
    check_regular_lam(type_name, lam)
    return check_residues(type_name, lam, residues, offsets)


def check_orbit_step(type_name, lam0, mu, k, lam_k, residues, prev_sig):
    """One translation step: lam_k = lam_0 + k mu exactly, residue checks,
    and a signature that moved.  Returns the new signature."""
    want = tuple(a + k * m for a, m in zip(lam0, mu))
    _require(tuple(lam_k) == want, f"step {k}: lam is not lam_0 + {k} mu")
    check_residues(type_name, lam_k, residues)
    sig = signature(residues[:-1])
    _require(signature_distance(prev_sig, sig) > SIG_MOVE_TOL,
             f"step {k}: signature did not change")
    return sig


def check_translation_vector(type_name, mu):
    _require(all(Fraction(x).denominator == 1 for x in mu),
             "mu is not integral")
    _require(level(type_name, mu) == 0, "mu is not level zero")
    _require(any(mu), "mu is zero")


# ---------------------------------------------------------------------------
# CLI outputs


def system_from_json(doc):
    """(type, lam, offsets, residues) read from a starweyl/system-v1
    document without the package's parser."""
    _require(doc.get("schema") == "starweyl/system-v1",
             "not a system-v1 document")
    type_name = doc["type"]
    lam = tuple(Fraction(v) for v in doc["lam"]["values"])
    offsets = [Fraction(v) for v in doc["offsets"]]
    residues = [np.array([[complex(x, y) for x, y in row] for row in m])
                for m in doc["residues"]]
    return type_name, lam, offsets, residues


def check_system_json(doc, type_name=None):
    t, lam, offsets, residues = system_from_json(doc)
    if type_name is not None:
        _require(t == type_name, f"system type {t}, expected {type_name}")
    check_system(t, lam, residues, offsets)
    return t, lam, residues


def check_roots_json(doc, type_name):
    count, hyper = ROOT_COUNTS[type_name]
    _require(doc.get("count") == count,
             f"{type_name}: {doc.get('count')} roots, expected {count}")
    _require(doc.get("hyperplanes") == hyper,
             f"{type_name}: {doc.get('hyperplanes')} hyperplanes, "
             f"expected {hyper}")
    got = {tuple(r) for r in doc.get("roots", [])}
    _require(len(got) == len(doc.get("roots", [])) and
             got == all_roots(type_name),
             f"{type_name}: root list differs from the Cartan closure")


def check_regular_json(doc, type_name, lam):
    want = violated_roots(type_name, lam)
    got = {tuple(r) for r in doc.get("violated", [])}
    _require(got == want, f"{type_name}: violated roots differ "
                          f"({len(got)} reported, {len(want)} expected)")
    _require(doc.get("regular") is (not want), "regular flag is wrong")


def _csv_rows(text):
    lines = text.strip().splitlines()
    return lines[0].split(","), [line.split(",") for line in lines[1:]]


def check_orbit_csv(text, type_name, lam0, mu, steps):
    """lam rows are the exact progression lam_0 + k mu; signatures move."""
    header, rows = _csv_rows(text)
    size = len(cartan(type_name))
    _require(header[:size + 1] == ["step"] + [f"lam_{i}" for i in range(size)],
             "orbit CSV header is wrong")
    _require(len(rows) == steps + 1, f"{len(rows)} orbit rows, "
                                     f"expected {steps + 1}")
    prev = None
    for k, row in enumerate(rows):
        _require(row[0] == str(k), f"row {k} is labelled {row[0]}")
        lam = tuple(Fraction(x) for x in row[1:size + 1])
        want = tuple(a + k * m for a, m in zip(lam0, mu))
        _require(lam == want, f"orbit row {k}: lam is not lam_0 + {k} mu")
        sig = np.array([complex(float(a), float(b)) for a, b in
                        zip(row[size + 1::2], row[size + 2::2])])
        if prev is not None:
            _require(signature_distance(prev, sig) > SIG_MOVE_TOL,
                     f"orbit row {k}: signature did not change")
        prev = sig


def sakai_r9_step(points, mu_coeffs):
    """Point shift of one r = 9 translation by sum m_k a_k: with s the sum
    of the points, u_i moves by s (mu_0 / 3 + mu_i), where mu_i are the
    E_i coefficients of the root combination."""
    mu = [Fraction(0)] * 10
    roots = [[1, -1, -1, -1, 0, 0, 0, 0, 0, 0]]
    for i in range(1, 8):
        v = [0] * 10
        v[i], v[i + 1] = 1, -1
        roots.append(v)
    for c, root in zip(mu_coeffs, roots):
        for k in range(10):
            mu[k] += c * root[k]
    s = sum(points, Fraction(0))
    return tuple(s * (mu[0] / 3 + mu[i + 1]) for i in range(9))


def sakai_small_step(r, mu_lam):
    """Point shift of the r <= 8 translation: the shift w pairs with each
    simple root a_k (a_0 = E_0 - E_1 - E_2 - E_3, a_i = E_i - E_{i+1}) to
    the mu entry at that root's star-graph node."""
    # star-graph node of each simple root: the chain a_1..a_{r-1} carries
    # the centre at a_3, a_0 and a_2 sit on the short legs
    node = {0: 1, 1: 3, 2: 2, 3: 0}
    # row k holds the E_1..E_r coefficients of a_k, so row k . w = chi(w, a_k)
    rows = [[Fraction(-1)] * 3 + [Fraction(0)] * (r - 3)]
    for i in range(1, r):
        v = [Fraction(0)] * r
        v[i - 1], v[i] = Fraction(1), Fraction(-1)
        rows.append(v)
    rhs = [Fraction(mu_lam[node.get(k, k)]) for k in range(r)]
    return _solve(rows, rhs)


def _solve(a, b):
    n = len(a)
    m = [list(row) + [rhs] for row, rhs in zip(a, b)]
    for col in range(n):
        piv = next(r for r in range(col, n) if m[r][col] != 0)
        m[col], m[piv] = m[piv], m[col]
        for r in range(n):
            if r != col and m[r][col] != 0:
                f = m[r][col] / m[col][col]
                m[r] = [x - f * y for x, y in zip(m[r], m[col])]
    return tuple(m[i][n] / m[i][i] for i in range(n))


def check_sakai_csv(text, points, mu, steps):
    """Point rows are the exact progression u_0 + k d with the step d the
    benchmark derives itself."""
    header, rows = _csv_rows(text)
    r = len(points)
    _require(header == ["step"] + [f"u_{i}" for i in range(1, r + 1)]
             + ["walls"], "sakai CSV header is wrong")
    _require(len(rows) == steps + 1, f"{len(rows)} sakai rows, "
                                     f"expected {steps + 1}")
    step = sakai_r9_step(points, mu) if r == 9 else sakai_small_step(r, mu)
    for k, row in enumerate(rows):
        got = tuple(Fraction(x) for x in row[1:r + 1])
        want = tuple(u + k * d for u, d in zip(points, step))
        _require(got == want, f"sakai row {k} leaves the progression")
