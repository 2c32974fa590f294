"""Fuchsian systems as residue tuples with prescribed adjoint orbits.

A system with poles a_1, ..., a_{m-1}, infinity is stored as its finite
residues A_1, ..., A_{m-1}; the closing residue A_m = nu * Id - sum A_i
is derived, and the actual residue at infinity is A_m - nu.  The exact
bookkeeping is a level-zero parameter vector lam on the star graph whose
legs encode the eigenvalue flags: the leg attached to pole i carries the
consecutive eigenvalue differences of A_i, and in the determinant-zero
normalisation the ordered eigenvalues are 0 followed by the negated
partial sums of the leg parameters.  nu, derived too, is the central
component of lam plus the per-pole first eigenvalues.  Matrices are
complex floating point witnesses of this exact data; every constructor
and operation verifies them against it.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
import random
import zlib
from dataclasses import dataclass, replace
from fractions import Fraction

import numpy as np

from . import ratlin
from .dynkin import ParamVector, StarGraph, smallest_root_pairing
from .errors import DegeneracyError
from .tolerances import (
    BALANCE_TOL,
    DECREASE_SHARE,
    DEFAULT_TOL,
    FIT_TOL,
    INTEGER_MARGIN,
    MINPOLY_TOL,
    RADIUS_FLOOR,
    ROOT_MARGIN,
    SPAN_TOL,
)

# finite pole positions, one per leg except the last (which sits at infinity)
DEFAULT_POLES = {3: (0.0, 1.0), 4: (0.0, -1.0, 1.0)}


@dataclass(frozen=True)
class OrbitSpec:
    """Ordered eigenvalue list with multiplicities for one residue.

    The order is semantic (it is fixed by the exact lam data, never by
    numeric sorting); entries are (exact eigenvalue, multiplicity).
    """

    size: int
    entries: tuple

    def __post_init__(self):
        ent = tuple((v, int(m)) for v, m in self.entries)
        if sum(m for _, m in ent) != self.size:
            raise ValueError("multiplicities must sum to the size")
        if any(m <= 0 for _, m in ent):
            raise ValueError("multiplicities must be positive")
        object.__setattr__(self, "entries", ent)

    @property
    def values(self):
        return tuple(v for v, _ in self.entries)

    @property
    def mults(self):
        return tuple(m for _, m in self.entries)

    @property
    def width(self) -> int:
        """Number of listed eigenvalues; one value may be listed twice."""
        return len(self.entries)

    def eigen_list(self):
        """All eigenvalues with multiplicity, exact."""
        out = []
        for v, m in self.entries:
            out.extend([v] * m)
        return tuple(out)

    def eigen_complex(self) -> np.ndarray:
        return np.array([ratlin.to_complex(v) for v in self.eigen_list()])

    def trace(self):
        return sum((v * m for v, m in self.entries), Fraction(0))

    @functools.cached_property
    def orbit_key(self) -> tuple:
        """What the orbit test (_check_orbits) reads of the spec, on
        integers: the eigenvalue multiset (_multiset) and, when the spec
        has fewer distinct values than its size, those values'
        ratlin.exact_key in order, whose minimal polynomial is tested;
        None otherwise.  A value may be listed at non-adjacent places (0,
        -1, 0), so the test counts distinct values, not listed ones."""
        counts = _key_counts(self.entries)
        return frozenset(counts.items()), \
            tuple(counts) if len(counts) < self.size else None


def orbit_from_leg(n: int, leg_dims, leg_params, first=Fraction(0)) -> OrbitSpec:
    """Determinant-zero orbit spec read off a leg.

    leg_dims and leg_params run from the node adjacent to the centre
    outward; the ordered eigenvalues are first, then first minus the
    partial sums of the parameters, with multiplicities given by the
    consecutive dimension drops (n at the centre).
    """
    dims = [n] + [int(d) for d in leg_dims] + [0]
    if any(a <= b for a, b in zip(dims, dims[1:])):
        raise ValueError("leg dimensions must strictly decrease")
    entries = []
    val = first
    for j in range(len(dims) - 1):
        mult = dims[j] - dims[j + 1]
        if entries and entries[-1][0] == val:
            # vanishing leg parameters collapse flag steps (closures)
            entries[-1] = (val, entries[-1][1] + mult)
        else:
            entries.append((val, mult))
        if j < len(leg_params):
            val = val - leg_params[j]
    return OrbitSpec(n, tuple(entries))


def leg_from_orbit(spec: OrbitSpec) -> tuple[int, ...]:
    """Leg dimensions n_j = rank (A - xi_1)...(A - xi_j), inverse to
    orbit_from_leg on generic specs."""
    return tuple(spec.size - acc for acc in
                 itertools.accumulate(m for _, m in spec.entries[:-1]))


def predicted_specs(g: StarGraph, lam: ParamVector, offsets=None) -> tuple[OrbitSpec, ...]:
    """Orbit specs of all m residues predicted by lam (det-zero plus the
    given per-pole scalar offsets)."""
    delta = g.delta
    n = delta[g.center]
    if offsets is None:
        offsets = (Fraction(0),) * g.num_legs
    return tuple(orbit_from_leg(n, [delta[k] for k in leg], [lam[k] for k in leg],
                                offsets[j])
                 for j, leg in enumerate(map(g.leg_nodes, range(g.num_legs))))


def _key_counts(pairs) -> dict:
    """{ratlin.exact_key(value): total multiplicity} of (value,
    multiplicity) pairs, equal values merged, in order of first
    appearance."""
    counts = {}
    for v, mult in pairs:
        key = ratlin.exact_key(v)
        counts[key] = counts.get(key, 0) + mult
    return counts


def _multiset(eigenvalues) -> frozenset:
    """The exact eigenvalue list (with repeats, in any order) as the key of
    _target_poly: a frozenset of (ratlin.exact_key, multiplicity) pairs."""
    return frozenset(_key_counts((v, 1) for v in eigenvalues).items())


@functools.lru_cache(maxsize=256)
def _target_poly(multiset: frozenset) -> tuple[tuple, float]:
    """Exact characteristic polynomial of the _multiset key, as complex
    coefficients, and its coefficient scale max(1, max_k |t_k|).  Each
    coefficient is an integer over a power of the roots' common
    denominator (ratlin.root_poly_integers), and int / int rounds exactly
    as float(Fraction) does, so the coefficients are to_complex of the
    Fraction polynomial, bit for bit."""
    d, re, im = ratlin.root_poly_integers(multiset)
    target = tuple(complex(x / d ** k, y / d ** k)
                   for k, (x, y) in enumerate(zip(re, im)))
    return target, max(1.0, float(np.max(np.abs(target))))


def _expand(roots) -> tuple[list, list] | None:
    """np.poly's coefficients of prod (x - z) over the complex eigvals roots
    of a matrix, highest degree first, as plain-float real and imaginary
    parts; None when one of them is not finite.  Each root is one
    np.convolve step, rounded as the tail loop of OpenBLAS's zdotu rounds
    its two-term complex dot product: np.poly's bits where numpy calls
    that kernel (its OpenBLAS wheels); numpy's own loop, MKL or a fused
    multiply-add round the sums differently, a few ulps apart.  The
    imaginary parts are zeroed, as in np.poly, when the sorted roots equal
    their sorted conjugates."""
    n = len(roots)
    re = [1.0] + [0.0] * n
    im = [0.0] * (n + 1)
    for j, z in enumerate(roots):
        wr, wi = -z.real, -z.imag
        for k in range(j + 1, 0, -1):
            pr, pi = re[k - 1], im[k - 1]
            re[k] = (re[k] + pr * wr) - pi * wi
            im[k] = (im[k] + pi * wr) + pr * wi
    if not all(map(math.isfinite, re + im)):
        return None
    lex = operator.attrgetter("real", "imag")
    if sorted(roots, key=lex) == sorted((z.conjugate() for z in roots), key=lex):
        im = [0.0] * len(re)
    return re, im


def _char_poly_distances(mats, multisets) -> list[float]:
    """The relative coefficient distance of each square matrix's
    characteristic polynomial, as np.poly computes it, from the exact one
    of its _multiset key: max_k |c_k - t_k| / max(1, max_k |t_k|).

    Matrices of one size share one np.linalg.eigvals call (a batched zgeev
    gives each matrix the bits of its own call), _expand expands the
    roots, and one np.abs call takes every |c_k - t_k| (Python's
    abs(complex) can differ by an ulp; np.abs gives an element the same
    bits wherever it sits).  A matrix with a non-finite entry, or whose
    polynomial overflows, has distance NaN."""
    by_size = {}
    for i, a in enumerate(mats):
        by_size.setdefault(a.shape[0], []).append(i)
    polys = [None] * len(mats)
    for idx in by_size.values():
        stack = np.array([mats[i] for i in idx], dtype=complex)
        finite = np.isfinite(stack).all(axis=(1, 2))
        if not finite.all():
            stack[~finite] = 0.0
        for i, roots, ok in zip(idx, np.linalg.eigvals(stack).tolist(),
                                finite.tolist()):
            if ok:
                polys[i] = _expand(roots)
    out = [math.nan] * len(mats)
    rows, diffs, starts = [], [], []
    for i, (poly, multiset) in enumerate(zip(polys, multisets)):
        if poly is not None:
            target, scale = _target_poly(multiset)
            rows.append((i, scale))
            starts.append(len(diffs))
            diffs.extend(complex(x - t.real, y - t.imag)
                         for x, y, t in zip(*poly, target, strict=True))
    if rows:
        dists = np.maximum.reduceat(np.abs(np.array(diffs)), starts).tolist()
        for (i, scale), d in zip(rows, dists):
            out[i] = d / scale
    return out


def char_poly_error(a: np.ndarray, eigenvalues) -> float:
    """Relative coefficient distance between charpoly(a), as np.poly
    computes it, and the exact polynomial with the given eigenvalues (with
    repeats, in any order): max_k |c_k - t_k| / max(1, max_k |t_k|), with
    np.poly's and np.abs's rounding (_char_poly_distances); NaN when a has
    a non-finite entry or the polynomial overflows."""
    return _char_poly_distances([np.asarray(a)], [_multiset(eigenvalues)])[0]


def _minpoly_residual(a: np.ndarray, keys) -> float:
    """minpoly_error over the distinct values given by their
    ratlin.exact_key, multiplied in the order given."""
    a = np.asarray(a, dtype=complex)
    values = np.array([ratlin.key_complex(key) for key in keys])
    factors = a - values[:, None, None] * np.eye(a.shape[0])
    acc = factors[0]
    for f in factors[1:]:
        acc = acc @ f
    scale = max(1.0, float(np.linalg.norm(a))) ** len(values)
    return float(np.linalg.norm(acc)) / scale


def minpoly_error(a: np.ndarray, eigenvalues) -> float:
    """Residual ||prod_k (a - xi_k)|| over the distinct exact eigenvalues
    xi_k, in order of first appearance, relative to max(1, ||a||)^(their
    number): zero exactly when a is semisimple with eigenvalues among them,
    which the characteristic polynomial cannot tell from a Jordan block.
    Each xi_k is the ratlin.key_complex of its exact_key (the bits of
    complex(xi_k))."""
    return _minpoly_residual(a, dict.fromkeys(map(ratlin.exact_key, eigenvalues)))


def closing_residue(finite, nu) -> np.ndarray:
    """A_m = nu * Id - sum of the finite residues."""
    n = finite[0].shape[0]
    return ratlin.to_complex(nu) * np.eye(n) - sum(finite)


def _check_orbits(pieces, tol: float, subject: str) -> float:
    """The orbit test of a witness.  Each (matrix, spec) piece in turn must
    have a characteristic polynomial within tol of the spec's (the
    distances of all pieces come from one _char_poly_distances call) and,
    where the spec has fewer distinct values than its size, a minimal
    polynomial residual within MINPOLY_TOL (_minpoly_residual over
    spec.orbit_key).
    A NaN distance or residual fails.  Raises DegeneracyError, naming the
    subject, at the first piece that fails; returns the worst
    characteristic-polynomial distance."""
    pieces = list(pieces)
    errs = _char_poly_distances([a for a, _ in pieces],
                                [spec.orbit_key[0] for _, spec in pieces])
    worst = 0.0
    for (a, spec), err in zip(pieces, errs):
        if not err <= tol:
            raise DegeneracyError(
                f"{subject} is {err:.2e} away from its orbit spec (tol {tol:.1e})")
        worst = max(worst, err)
        # n distinct eigenvalues make a matching characteristic
        # polynomial semisimple; only a repeated one can hide a Jordan block
        distinct = spec.orbit_key[1]
        err = 0.0 if distinct is None else _minpoly_residual(a, distinct)
        if not err <= MINPOLY_TOL:
            raise DegeneracyError(
                f"{subject} is not semisimple (minimal polynomial residual "
                f"{err:.2e}, tol {MINPOLY_TOL:.1e})")
    return worst


@dataclass(frozen=True)
class FuchsianSystem:
    """Residue tuple (A_1, ..., A_m) with sum A_i = nu * Id, stored as its
    independent data: the m-1 finite residues, their poles (the last pole
    is infinity), the exact level-zero lam and the offsets, the per-pole
    first eigenvalues (all zero in the determinant-zero normalisation).
    nu, the m residues (A_m closing the sum) and the exact per-pole
    ordered eigenvalue data specs are derived from them.
    """

    graph: StarGraph
    poles: tuple
    finite_residues: tuple
    lam: ParamVector
    offsets: tuple
    tol: float = DEFAULT_TOL

    def __post_init__(self):
        finite = tuple(np.asarray(a, dtype=complex) for a in self.finite_residues)
        for a in finite:
            a.setflags(write=False)
        object.__setattr__(self, "finite_residues", finite)
        object.__setattr__(self, "poles", tuple(complex(p) for p in self.poles))
        object.__setattr__(self, "offsets", tuple(self.offsets))

    # -- structure ----------------------------------------------------------

    @property
    def m(self) -> int:
        return len(self.finite_residues) + 1

    @property
    def n(self) -> int:
        return self.finite_residues[0].shape[0]

    @functools.cached_property
    def nu(self):
        return self.lam[self.graph.center] + sum(self.offsets, Fraction(0))

    @functools.cached_property
    def residues(self) -> tuple:
        closing = closing_residue(self.finite_residues, self.nu)
        closing.setflags(write=False)
        return self.finite_residues + (closing,)

    @functools.cached_property
    def specs(self) -> tuple[OrbitSpec, ...]:
        return predicted_specs(self.graph, self.lam, self.offsets)

    @property
    def normalization(self) -> str:
        if all(o == 0 for o in self.offsets):
            return "det_zero"
        if all(s.trace() == 0 for s in self.specs):
            return "trace_zero"
        return "none"

    # -- verification -------------------------------------------------------

    def verify(self):
        """Check the matrices against the exact bookkeeping; raise on
        failure.  Returns the worst relative orbit error."""
        g = self.graph
        if len(self.poles) != g.num_legs - 1:
            raise ValueError("pole count must match the number of legs minus one")
        if len(self.finite_residues) != g.num_legs - 1:
            raise ValueError("finite residue count must match the number of "
                             "legs minus one")
        if len(set(self.poles)) != len(self.poles):
            raise ValueError("finite poles must be distinct")
        if len(self.lam) != g.node_count or len(self.offsets) != g.num_legs:
            raise ValueError(f"lam needs {g.node_count} entries and offsets "
                             f"{g.num_legs}")
        if not self.lam.is_level_zero(g.delta):
            raise ValueError("lam must be level zero")
        return _check_orbits(zip(self.residues, self.specs), self.tol, "residue")

    def with_residues(self, finite, **changes) -> "FuchsianSystem":
        """replace(self, finite_residues=finite, **changes), verified."""
        sys2 = replace(self, finite_residues=tuple(finite), **changes)
        sys2.verify()
        return sys2


def make_system(graph: StarGraph, poles, finite_residues, lam: ParamVector,
                offsets=None, tol: float = DEFAULT_TOL) -> FuchsianSystem:
    """The verified FuchsianSystem of the given finite residues and exact
    data (offsets default to zero, the determinant-zero normalisation)."""
    if offsets is None:
        offsets = (Fraction(0),) * graph.num_legs
    sys = FuchsianSystem(graph, poles, finite_residues, lam, offsets, tol)
    sys.verify()
    return sys


# ---------------------------------------------------------------------------
# sampling


_NODE_PRIMES = (3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def random_regular_lam(g: StarGraph, rng: random.Random) -> ParamVector:
    """Random exact rational level-zero lam off every root hyperplane.

    Each non-central node draws numerator/prime-denominator with a prime
    of its own, which makes every within-pole eigenvalue difference (a sum
    of the parameters over a run of distinct nodes) provably non-integral,
    so elementary Schlesinger moves can never collide two exponents.  On
    top of that, root pairings must stay ROOT_MARGIN away from zero and the
    within-pole differences INTEGER_MARGIN away from integers, to keep the
    draw a well-conditioned floating-point witness."""
    delta = g.delta
    c = g.center
    primes = _NODE_PRIMES
    if g.node_count - 1 > len(primes):
        raise ValueError("graph too large for the prime-denominator draw")
    for _ in range(400):
        vals = [Fraction(0)] * g.node_count
        k = 0
        for node in range(g.node_count):
            if node == c:
                continue
            p = primes[k]
            k += 1
            num = 0
            while num == 0 or num % p == 0:
                num = rng.randint(-4 * p, 4 * p)
            vals[node] = Fraction(num, p)
        rest = sum(d * v for j, (d, v) in enumerate(zip(delta.coords, vals)) if j != c)
        vals[c] = Fraction(-rest, delta[c])
        lam = ParamVector(tuple(vals))
        if lam[c] == 0:
            continue
        if smallest_root_pairing(g, lam) < ROOT_MARGIN:
            continue
        diffs = []
        for spec in predicted_specs(g, lam):
            vs = spec.values
            diffs.extend(float(a - b) for i, a in enumerate(vs)
                         for b in vs[i + 1:])
        if all(abs(d - round(d)) >= INTEGER_MARGIN for d in diffs):
            return lam
    raise DegeneracyError("could not sample a regular lam")


def _commutator_jacobian(mats):
    """Jacobian of X_1..X_k -> sum_k (X_k A_k - A_k X_k) for the (k, n, n)
    stack mats: the blocks I (x) A_k^T - A_k (x) I side by side, built by
    broadcasting with the same products np.kron forms."""
    k, n, _ = mats.shape
    eye = np.eye(n)
    left = eye[None, :, None, :, None] * mats.transpose(0, 2, 1)[:, None, :, None, :]
    right = mats[:, :, None, :, None] * eye[None, None, :, None, :]
    # axes (k, i, p, j, q) -> row (i, p), column (k, j, q)
    return (left - right).transpose(1, 2, 0, 3, 4).reshape(n * n, k * n * n)


def _pinned_normal(mats, norm2):
    """The commutator Jacobian J of the (k, n, n) stack mats, and its normal
    matrix J J^H + (norm2 / n) vec(I) vec(I)^T.  Commutators are trace
    free, so vec(I) is in the kernel of J J^H, and for an irreducible tuple
    (only the scalars commute with every A_k) it spans it; the pin, with
    norm2 = sum ||A_k||^2 of the size of J J^H's other eigenvalues, makes
    the matrix invertible and leaves J^H unchanged on the range of J."""
    n = mats.shape[1]
    jac = _commutator_jacobian(mats)
    vec_eye = np.eye(n).ravel()
    return jac, jac @ jac.conj().T + (norm2 / n) * np.outer(vec_eye, vec_eye)


def _tr_gauss_newton(gs, diags, target, tol, max_iters):
    """Trust-region Gauss-Newton for sum_k g_k D_k g_k^{-1} = target,
    acting on the conjugators.  Returns (gs, mats, residual, goal) with gs
    and mats as lists of matrices; the fit stops once the residual is below
    goal = tol * max(1, ||target||, max_k ||D_k||), the fit scale.

    The step is the minimum-norm solution x of J x = -vec(f), for J the
    commutator Jacobian of the current mats and f their residual, taken as
    x = J^H y with y solving the pinned normal equations (_pinned_normal):
    one n^2 x n^2 solve instead of a least-squares problem on the
    n^2 x k n^2 Jacobian.  A singular normal matrix (LinAlgError) ends the
    fit at its current residual."""
    n = target.shape[0]
    eye = np.eye(n)
    k = len(diags)
    goal = tol * max(1.0, float(np.linalg.norm(target)),
                     max(float(np.linalg.norm(d)) for d in diags))
    diags = np.array(diags)

    def normalize_cols(g):
        # g D g^{-1} is invariant under right-multiplication by diagonals,
        # so column rescaling costs nothing and keeps g well conditioned
        norms = np.linalg.norm(g, axis=-2)
        return g / np.where(norms > 0, norms, 1.0)[..., None, :]

    def assemble(gs):
        mats = gs @ diags @ np.linalg.inv(gs)
        return mats, sum(mats) - target

    gs = normalize_cols(np.array(gs))
    mats, f = assemble(gs)
    res = float(np.linalg.norm(f))
    radius = 0.5
    for _ in range(max_iters):
        if res < goal:
            break
        jac, normal = _pinned_normal(mats, float(np.vdot(mats, mats).real))
        try:
            y = np.linalg.solve(normal, -f.ravel())
        except np.linalg.LinAlgError:
            break
        x = jac.conj().T @ y
        nx = float(np.linalg.norm(x))
        if nx > radius:
            x = x * (radius / nx)
        xs = x.reshape(k, n, n)
        step = 1.0
        accepted = False
        for _ in range(10):
            cand = normalize_cols((eye + step * xs) @ gs)
            try:
                mats_c, f_c = assemble(cand)
            except np.linalg.LinAlgError:
                step /= 2
                continue
            res_c = float(np.linalg.norm(f_c))
            if res_c < res * (1 - DECREASE_SHARE * step):
                gs, mats, f, res = cand, mats_c, f_c, res_c
                accepted = True
                break
            step /= 2
        if accepted and step == 1.0:
            radius = min(radius * 1.6, 20.0)
        elif accepted:
            radius = max(radius * step, RADIUS_FLOOR)
        else:
            radius /= 3
            if radius < RADIUS_FLOOR:
                break
    return list(gs), list(mats), res, goal


def _draw_starts(n, count, style, rng):
    """count starting conjugators: near the identity (style 1) or random
    unitaries (style 0)."""
    noise = [rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
             for _ in range(count)]
    if style == 0:
        return [np.linalg.qr(z)[0] for z in noise]
    return [np.eye(n) + 0.3 * z for z in noise]


def _fit_orbit_sum(target: np.ndarray, specs, rng: np.random.Generator):
    """Find A_k in the orbit of specs[k] with sum A_k = target, or None,
    by trust-region Gauss-Newton from two starts."""
    n = target.shape[0]
    diags = [np.diag(s.eigen_complex()) for s in specs]

    # different instances favour different starting basins, so try both
    # initialisation styles
    for style in (1, 0):
        gs = _draw_starts(n, len(specs), style, rng)
        _, mats, res, goal = _tr_gauss_newton(gs, diags, target, FIT_TOL,
                                              max_iters=150)
        if res < goal:
            return mats
    return None


def sample_system(type_name: str, seed: int, tol: float = DEFAULT_TOL):
    """Seeded random Fuchsian system of the given affine type, det-zero
    normalised, with exact regular lam.  Returns (system, lam).

    One pole is put in diagonal form and the remaining residues are fitted
    to the complementary sum; which pole is pinned is cycled when the fit
    resists, and as a last resort a fresh lam is drawn (the documented
    retry on degenerate samples).  Deterministic for a given seed.
    """
    g = StarGraph.affine(type_name)
    rng_exact = random.Random(f"starweyl/{type_name}/{seed}")
    rng_np = np.random.default_rng([zlib.crc32(type_name.encode()), seed])
    poles = DEFAULT_POLES[g.num_legs]
    m = g.num_legs
    n = g.delta[g.center]
    eye = np.eye(n)
    pivots = [m - 1] + list(range(m - 1))
    # try every pivot choice, then resample lam (fresh draws are almost
    # always easy)
    for _ in range(8):
        lam = random_regular_lam(g, rng_exact)
        specs = predicted_specs(g, lam)
        nu_c = ratlin.to_complex(lam[g.center])
        for pivot in pivots:
            target = nu_c * eye - np.diag(specs[pivot].eigen_complex())
            others = [s for k, s in enumerate(specs) if k != pivot]
            fitted = _fit_orbit_sum(target, others, rng_np)
            if fitted is None:
                continue
            mats = fitted[:pivot] + [np.diag(specs[pivot].eigen_complex())] \
                + fitted[pivot:]
            sys = make_system(g, poles, mats[:-1], lam, tol=tol)
            return sys, lam
    raise DegeneracyError(
        f"sampling {type_name} with seed {seed} kept hitting degenerate fits")


# ---------------------------------------------------------------------------
# normalisation, irreducibility, signatures


def normalize(sys: FuchsianSystem) -> FuchsianSystem:
    """Fix the scalar-tensoring freedom in the determinant-zero
    normalisation: each residue moves by minus its offset, its first
    eigenvalue (orbit_from_leg starts there), and the offsets become zero.
    The level-zero lam is untouched."""
    if all(o == 0 for o in sys.offsets):
        return sys
    finite = [a - ratlin.to_complex(o) * np.eye(sys.n)
              for a, o in zip(sys.finite_residues, sys.offsets)]
    return sys.with_residues(finite, offsets=tuple(o - o for o in sys.offsets))


def algebra_dimension(mats) -> int:
    """Dimension of the unital algebra generated by the matrices (span of
    all words, grown incrementally with an orthonormal basis)."""
    n = mats[0].shape[0]
    basis = []

    def try_add(m):
        v = m.ravel().astype(complex)
        nrm0 = float(np.linalg.norm(v))
        for b in basis:
            v = v - np.vdot(b, v) * b
        nrm = float(np.linalg.norm(v))
        if nrm > SPAN_TOL * max(1.0, nrm0):
            basis.append(v / nrm)
            return True
        return False

    frontier = []
    if try_add(np.eye(n)):
        frontier.append(np.eye(n))
    while frontier:
        nxt = []
        for w in frontier:
            for g in mats:
                cand = g @ w
                if try_add(cand):
                    nxt.append(cand)
        frontier = nxt
    return len(basis)


def is_irreducible(sys: FuchsianSystem) -> bool:
    """Burnside criterion: the finite residues generate the full matrix
    algebra iff no simultaneous block triangularisation exists."""
    n = sys.n
    return algebra_dimension(list(sys.finite_residues)) == n * n


@dataclass(frozen=True)
class Signature:
    """Traces of words in the finite residues, in deterministic order
    (lengths 1..L, lexicographic)."""

    length: int
    values: tuple

    def distance(self, other: "Signature") -> float:
        if self.length != other.length or len(self.values) != len(other.values):
            raise ValueError("signatures of different shape")
        scale = max(1.0, max(abs(v) for v in self.values))
        return max(abs(a - b) for a, b in zip(self.values, other.values)) / scale


def signature(sys: FuchsianSystem, length: int = 4) -> Signature:
    mats = sys.finite_residues
    vals = []
    for l in range(1, length + 1):
        for word in itertools.product(range(len(mats)), repeat=l):
            acc = mats[word[0]]
            for i in word[1:]:
                acc = acc @ mats[i]
            vals.append(complex(np.trace(acc)))
    return Signature(length, tuple(vals))


def conjugated(sys: FuchsianSystem, gmat: np.ndarray) -> FuchsianSystem:
    """Simultaneous conjugation witness (same exact data)."""
    ginv = np.linalg.inv(gmat)
    finite = [gmat @ a @ ginv for a in sys.finite_residues]
    return sys.with_residues(finite)


# ---------------------------------------------------------------------------
# balancing


_BALANCE_STEPS = 50   # Newton steps before giving up on a tuple with no balanced point
_BALANCE_HALVINGS = 12  # step halvings before a Newton step counts as stalled


def _moment_map(mats):
    """Real moment map sum [A_k, A_k^H] and norm sum ||A_k||^2 of the
    (k, n, n) stack mats."""
    adj = mats.conj().transpose(0, 2, 1)
    return (mats @ adj - adj @ mats).sum(axis=0), float(np.vdot(mats, mats).real)


def _newton_direction(mats, moment, norm2):
    """Newton direction H of S -> sum ||e^S A_k e^-S||^2 at S = 0, on
    Hermitian S: half the least-squares fit S of sum ||A_k + [S, A_k]||^2
    (the fit's quadratic term is half the Hessian).  With J_X the matrix
    of S -> [S, X] on vec(S) (_commutator_jacobian), the fit's normal
    equations are sum_k (J_k^H J_k + J_k J_k^H) vec(S) / 2 = -vec(moment);
    as J_X^H = J_{X^H}, that n^2 x n^2 matrix is J J^H / 2 for J the
    Jacobian of the stack of every A_k and A_k^H.  J_{X^H} is J_X
    conjugated, with both vec indices transposed, so the A_k^H half of
    J J^H mirrors the A_k half.  The scalars, its kernel, are pinned at
    trace zero by _pinned_normal, whose pin is its own mirror."""
    n = mats.shape[1]
    half = _pinned_normal(mats, norm2)[1].reshape(n, n, n, n)
    normal = 0.5 * (half + half.transpose(1, 0, 3, 2).conj()).reshape(n * n, n * n)
    s = np.linalg.solve(normal, -moment.ravel()).reshape(n, n)
    return (s + s.conj().T) / 4


def balance_gauge(mats):
    """The positive-definite P, and its inverse, that conjugates the
    residue stack mats (all m of them) towards the minimum of
    sum ||A_i||^2, where the real moment map sum [A_i, A_i^H] vanishes
    (Kempf-Ness; King); None when ||sum [A_i, A_i^H]|| <= BALANCE_TOL *
    sum ||A_i||^2 holds already.

    Damped Newton steps A <- e^H A e^-H (_newton_direction), halved until
    the norm drops, run until that test holds; their product g is then
    replaced by the positive-definite factor P of its polar decomposition
    g = U P, which balances as well."""
    mats = np.array(mats)
    moment, norm2 = _moment_map(mats)
    if np.linalg.norm(moment) <= BALANCE_TOL * norm2:
        return None
    gauge = np.eye(mats.shape[1])
    for _ in range(_BALANCE_STEPS):
        w, u = np.linalg.eigh(_newton_direction(mats, moment, norm2))
        rotated = u.conj().T @ mats @ u
        for halving in range(_BALANCE_HALVINGS):
            e = np.exp(w / 2 ** halving)
            cand = e[:, None] * rotated / e
            cand_norm2 = float(np.vdot(cand, cand).real)
            if cand_norm2 < norm2:
                break
        else:
            break
        gauge = (u * e) @ u.conj().T @ gauge
        mats = u @ cand @ u.conj().T
        moment, norm2 = _moment_map(mats)
        if np.linalg.norm(moment) <= BALANCE_TOL * norm2:
            break
    _, sv, vh = np.linalg.svd(gauge)
    return (vh.conj().T * sv) @ vh, (vh.conj().T / sv) @ vh


def balance(sys: FuchsianSystem) -> FuchsianSystem:
    """The system conjugated by balance_gauge, or sys itself when it is
    balanced already.  Conjugation keeps lam, the specs and every trace
    word; it only makes the witnesses better conditioned, so nothing is
    verified here."""
    pq = balance_gauge(sys.residues)
    if pq is None:
        return sys
    pos, pos_inv = pq
    return replace(sys, finite_residues=[pos @ a @ pos_inv
                                         for a in sys.finite_residues])
