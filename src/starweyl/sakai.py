"""Point configurations on a cuspidal cubic and exact Cremona dynamics.

The Picard lattice of the plane blown up in r points has basis E_0..E_r
with intersection form diag(+1, -1, ..., -1); the anticanonical class is
delta = 3E_0 - sum E_i, and Q = delta-perp carries the E_r root system
(affine E_8 for r = 9) with simple roots

    a_0 = E_0 - E_1 - E_2 - E_3,   a_i = E_i - E_{i+1}.

A configuration of r points on the smooth locus of a cuspidal cubic is an
r-tuple u of group-law coordinates; restriction of line bundles gives the
homomorphism chi_u on Q with chi_u(E_i - E_0/3) = u_i, and the Weyl group
acts: swapping labels for the roots E_i - E_j and a quadratic Cremona
transformation based at the first three points for a_0.  Everything here
is exact rational arithmetic; walls (extra (-2)-classes) are detected,
never forbidden.
"""

from __future__ import annotations

import itertools
import math
import operator
from fractions import Fraction
from functools import cached_property, lru_cache

from . import ratlin
from .dynkin import Frozen, ParamVector, StarGraph
from .errors import InputFormatError


class PicardLattice(Frozen):
    """Rank r+1 lattice with basis E_0..E_r and form diag(1, -1, ..., -1)."""

    _fields = ("r",)

    def __init__(self, r: int):
        if r not in (6, 7, 8, 9):
            raise ValueError("supported ranks are r = 6, 7, 8, 9")
        object.__setattr__(self, "r", r)

    def intersect(self, f, g):
        acc = Fraction(f[0]) * Fraction(g[0])
        for a, b in zip(f[1:], g[1:]):
            acc -= Fraction(a) * Fraction(b)
        return acc

    @cached_property
    def delta(self) -> tuple:
        """Anticanonical class 3E_0 - sum E_i."""
        return (Fraction(3),) + (Fraction(-1),) * self.r

    @cached_property
    def simple_roots(self) -> tuple:
        """a_0 = E_0 - E_1 - E_2 - E_3 and a_i = E_i - E_{i+1}."""
        first = (1, -1, -1, -1) + (0,) * (self.r - 3)
        chain = [tuple((k == i) - (k == i + 1) for k in range(self.r + 1))
                 for i in range(1, self.r)]
        return tuple(tuple(map(Fraction, v)) for v in [first, *chain])

    def beta_vector(self, i: int) -> tuple:
        """beta_i = E_i - E_0/3, a basis of Q tensor Q."""
        v = [Fraction(0)] * (self.r + 1)
        v[0] = Fraction(-1, 3)
        v[i] = Fraction(1)
        return tuple(v)

    def in_q(self, f) -> bool:
        return self.intersect(f, self.delta) == 0


def reflect_pic(lat: PicardLattice, f, alpha):
    """s_alpha(F) = F + (F . alpha) alpha for a (-2)-class alpha."""
    if lat.intersect(alpha, alpha) != -2:
        raise ValueError("reflection requires a (-2)-class")
    c = lat.intersect(f, alpha)
    return tuple(Fraction(x) + c * Fraction(a) for x, a in zip(f, alpha))


class PointConfig(Frozen):
    """r-tuple of exact group-law coordinates on the smooth locus of the
    cuspidal cubic (the inflection point is the origin)."""

    _fields = ("values",)

    def __init__(self, values: tuple):
        vals = tuple(v if isinstance(v, Fraction) else Fraction(v)
                     for v in values)
        if len(vals) not in (6, 7, 8, 9):
            raise ValueError("configurations have 6 to 9 points")
        object.__setattr__(self, "values", vals)

    @property
    def r(self) -> int:
        return len(self.values)

    @property
    def lattice(self) -> PicardLattice:
        return PicardLattice(self.r)

    def total(self) -> Fraction:
        return sum(self.values, Fraction(0))

    def __getitem__(self, i):
        return self.values[i]


def chi(p: PointConfig, line_class) -> Fraction:
    """chi_p(L) = sum c_i u_i for L = c_0 E_0 + sum c_i E_i in Q tensor Q
    (the group-law value of the restriction, with [0] = 0)."""
    lat = p.lattice
    if not lat.in_q(line_class):
        raise ValueError("chi is defined on the delta-orthogonal lattice Q")
    return sum((Fraction(c) * u for c, u in zip(line_class[1:], p.values)),
               Fraction(0))


def cremona_reflect(p: PointConfig) -> PointConfig:
    """Quadratic Cremona transformation based at the first three points:
    u_i -> u_i - 2 eps (i <= 3), u_i -> u_i + eps (i > 3), with
    eps = (u_1 + u_2 + u_3) / 3.  An involution."""
    eps = (p[0] + p[1] + p[2]) / 3
    vals = [v - 2 * eps if i < 3 else v + eps for i, v in enumerate(p.values)]
    return PointConfig(tuple(vals))


def swap_points(p: PointConfig, i: int, j: int) -> PointConfig:
    """Swap the labels of points i and j (1-based, matching E_i)."""
    if i == j:
        raise ValueError("swap needs two distinct labels")
    vals = list(p.values)
    vals[i - 1], vals[j - 1] = vals[j - 1], vals[i - 1]
    return PointConfig(tuple(vals))


def act_simple(p: PointConfig, k: int) -> PointConfig:
    """Action of the k-th simple root: k = 0 is the Cremona reflection,
    k >= 1 swaps points k and k+1."""
    if k == 0:
        return cremona_reflect(p)
    return swap_points(p, k, k + 1)


def act_word(p: PointConfig, word) -> PointConfig:
    for k in reversed(tuple(word)):
        p = act_simple(p, k)
    return p


# ---------------------------------------------------------------------------
# walls


@lru_cache(maxsize=4)
def _wall_table(r: int) -> tuple:
    """(kind, labels, integer coefficients of u_1..u_r) for every wall
    candidate, in report order; a nodal cubic lists its double point first."""
    idx = range(1, r + 1)

    def count(labels):
        return tuple(labels.count(k) for k in idx)

    table = [("equal", (i, j), tuple((k == i) - (k == j) for k in idx))
             for i, j in itertools.combinations(idx, 2)]
    table += [(kind, c, count(c)) for kind, size in (("collinear", 3), ("conic", 6))
              for c in itertools.combinations(idx, size)]
    if r >= 8:
        table += [("nodal_cubic", (d,) + tuple(k for k in c if k != d),
                   count(c + (d,)))
                  for c in itertools.combinations(idx, 8) for d in c]
    return tuple(table)


def wall_check(p: PointConfig):
    """Violated wall conditions: equal points, collinear triples, six on a
    conic, eight on a nodal cubic.  For r = 9 each is read modulo integer
    multiples of the total sum: over the points' common denominator a
    wall's sum V and the total M are integers, and V is hit when M divides
    it (when V = 0 if M = 0)."""
    den = math.lcm(*(u.denominator for u in p.values))
    n = [u.numerator * (den // u.denominator) for u in p.values]
    total = sum(n) if p.r == 9 else 0
    out = []
    for kind, labels, coeffs in _wall_table(p.r):
        v = sum(map(operator.mul, coeffs, n))
        if v == 0 or (total and v % total == 0):
            out.append((kind, labels))
    return tuple(out)


# ---------------------------------------------------------------------------
# identification with the star-shaped diagrams


def dynkin_graph(r: int) -> StarGraph:
    """The star graph matching the simple-root diagram: legs (1, 2, r-4)
    for r <= 8 (finite E_r) and the affine E8 star for r = 9."""
    if r == 9:
        return StarGraph.affine("E8")
    return StarGraph((1, 2, r - 4))


def sakai_to_dynkin_nodes(r: int) -> tuple[int, ...]:
    """Map simple-root index (0 = Cremona node, i = E_i - E_{i+1}) to the
    canonical star-graph node: the chain 1..r-1 carries the centre at
    position 3, the short legs (0) and (2, 1), and the long tail 4, 5, ...
    """
    sigma = {0: 1, 1: 3, 2: 2, 3: 0}
    for k in range(4, r):
        sigma[k] = k
    return tuple(sigma[k] for k in range(r))


def lam_from_config(p: PointConfig) -> ParamVector:
    """Parameters lam_j = chi_p(alpha) over the star-graph nodes, under the
    diagram identification.  For r = 9 the level lam . delta equals minus
    the sum of the points (the affinisation direction)."""
    lat = p.lattice
    sigma = sakai_to_dynkin_nodes(p.r)
    g = dynkin_graph(p.r)
    vals = [Fraction(0)] * g.node_count
    for k, node in enumerate(sigma):
        vals[node] = chi(p, lat.simple_roots[k])
    return ParamVector(tuple(vals))


def config_translation(p: PointConfig, mu_coeffs) -> PointConfig:
    """Affine Weyl translation for r = 9 by mu = sum m_k alpha_k, integer
    m_k, over the finite simple roots (all but the last chain root): in
    group-law coordinates u_i -> u_i - s (beta_i . mu) with s the sum of
    the points.
    """
    if p.r != 9:
        raise ValueError("lattice translations act affinely only for r = 9")
    lat = p.lattice
    mu_coeffs = tuple(Fraction(c) for c in mu_coeffs)
    if len(mu_coeffs) != 8:
        raise InputFormatError("r = 9 translations take 8 root coefficients")
    if any(c.denominator != 1 for c in mu_coeffs):
        raise InputFormatError("r = 9 translations take integer root "
                               "coefficients")
    mu = [sum((c * root[k] for c, root in zip(mu_coeffs, lat.simple_roots)),
              Fraction(0)) for k in range(10)]
    s = p.total()
    return PointConfig(tuple(u - s * lat.intersect(lat.beta_vector(i + 1), mu)
                             for i, u in enumerate(p.values)))


def kronheimer_step(p: PointConfig, mu_lam) -> PointConfig:
    """Parameter-level translation for r <= 8: transport an integral
    weight-lattice vector (finite star-graph coordinates lam_j) through
    the identification and add the resulting vector to u."""
    lat = p.lattice
    r = p.r
    if r == 9:
        raise ValueError("use config_translation for r = 9")
    sigma = sakai_to_dynkin_nodes(r)
    mu_lam = tuple(Fraction(x) for x in mu_lam)
    if len(mu_lam) != r:
        raise InputFormatError("expected one coordinate per finite node")
    # solve chi-shift = mu on the alpha basis: u-shift w with
    # sum_i alpha[k]_i w_i = mu at the matching star-graph node
    rows = [[root[i + 1] for i in range(r)] for root in lat.simple_roots]
    rhs = [[mu_lam[sigma[k]]] for k in range(r)]
    shift = ratlin.solve(ratlin.mat(rows), ratlin.mat(rhs))
    return PointConfig(tuple(u + shift[i][0] for i, u in enumerate(p.values)))


def sakai_orbit(p: PointConfig, mu, steps: int):
    """Rows (k, configuration, wall flags) for k = 0..steps.  For r = 9 mu
    lists the eight finite simple-root coefficients; for r <= 8 it is an
    integral weight vector in star-graph coordinates.  A translation adds
    a fixed vector w to u (for r = 9 the total it scales is invariant), so
    one step gives w and row k is u_0 + k w.

    For r = 9 the wall flags are those of row 0 on every row.  The total
    M is invariant, and a wall with coefficients c moves its sum V by
    c . w = -M (sum_i c_i beta_i) . mu per step, an integer multiple n M
    of M because mu is integral and the c_i sum to a multiple of 3.  So
    V + k n M lies in Z M exactly when V does, and stays V when M = 0.
    For r <= 8 walls are exact equalities and every row is checked."""
    step = config_translation(p, mu) if p.r == 9 else kronheimer_step(p, mu)
    w = [b - a for a, b in zip(p.values, step.values)]
    configs = [PointConfig(tuple(u + k * d for u, d in zip(p.values, w)))
               for k in range(steps + 1)]
    if p.r == 9:
        walls = wall_check(p)
        return [(k, q, walls) for k, q in enumerate(configs)]
    return [(k, q, wall_check(q)) for k, q in enumerate(configs)]
