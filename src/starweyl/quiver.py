"""Star quivers: moment maps, almost affine quivers and the increment
calculus on their parameters.

The moment map of a representation {phi} assigns to each node

    mu_i = sum_{h(e)=i} phi_e phi_e* - sum_{t(e)=i} phi_e* phi_e

(edges oriented toward the centre), and the sum of its traces vanishes
identically.  An almost affine quiver has strictly decreasing leg
dimensions, one full leg N-2,...,1 below a centre of dimension N-1, and
adjacent dimensions summing to 2(N-1); incrementing lengthens the full
leg and raises its dimensions by one.  The parameter maps shift_params /
project_params / permute_params implement the scalar-shift, projection
and eigenvalue-swap calculus on the incremented quiver, all exactly.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from . import ratlin
from .dynkin import ParamVector, RootVector, StarGraph
from .ratlin import GaussianRational


class DimensionVector(RootVector):
    """A RootVector with nonnegative entries."""

    def __init__(self, coords: tuple[int, ...]):
        super().__init__(coords)
        if any(x < 0 for x in self.coords):
            raise ValueError("dimensions must be nonnegative")

    @classmethod
    def delta(cls, g: StarGraph) -> "DimensionVector":
        return cls(g.delta.coords)


# ---------------------------------------------------------------------------
# representations and the moment map


def _check_matrix(m, rows: int, cols: int, what: str):
    """TypeError unless m is a tuple of tuples of ints, Fractions or Gaussian
    rationals, ValueError unless it is rows x cols."""
    if not (isinstance(m, tuple) and all(isinstance(r, tuple) for r in m)) \
            or not all(isinstance(x, (int, Fraction, GaussianRational))
                       for r in m for x in r):
        raise TypeError(f"{what} must be a tuple of tuples of exact entries")
    if len(m) != rows or any(len(r) != cols for r in m):
        raise ValueError(f"{what} shape mismatch")


@dataclass(frozen=True)
class QuiverRep:
    """One matrix in each direction for every edge of a star graph.

    phi[(t, h)] maps the space at t to the space at h; phi_star[(t, h)]
    goes back.  Matrices are exact tuples of tuples, as ratlin builds them.
    """

    graph: StarGraph
    dims: DimensionVector
    phi: dict
    phi_star: dict

    def __post_init__(self):
        for (t, h) in self.graph.edges:
            _check_matrix(self.phi[(t, h)], self.dims[h], self.dims[t],
                          f"phi on edge {(t, h)}")
            _check_matrix(self.phi_star[(t, h)], self.dims[t], self.dims[h],
                          f"phi* on edge {(t, h)}")


def moment_map(rep: QuiverRep) -> dict:
    """Node-indexed moment map values mu_i of the representation."""
    g = rep.graph
    out = {i: ratlin.zeros(rep.dims[i]) for i in range(g.node_count)}
    for (t, h) in g.edges:
        f, b = rep.phi[(t, h)], rep.phi_star[(t, h)]
        out[h] = ratlin.madd(out[h], ratlin.mmul(f, b))
        out[t] = ratlin.msub(out[t], ratlin.mmul(b, f))
    return out


def dim_w(g: StarGraph, dims) -> int:
    """dim W = 2 * sum over edges of n_tail * n_head."""
    d = dims.coords if isinstance(dims, RootVector) else tuple(dims)
    return 2 * sum(d[t] * d[h] for (t, h) in g.edges)


def orbit_dimension(n: int, mults) -> int:
    """Dimension of the semisimple adjoint orbit with the given eigenvalue
    multiplicities: n^2 - sum m_k^2."""
    ms = tuple(mults)
    if sum(ms) != n:
        raise ValueError("multiplicities must sum to the matrix size")
    return n * n - sum(m * m for m in ms)


def expected_dim(orbit_dims, n: int) -> int:
    """sum dim O_i - 2 dim PGL_n, the expected moduli dimension."""
    return sum(orbit_dims) - 2 * (n * n - 1)


# ---------------------------------------------------------------------------
# almost affine quivers and the increment


@dataclass(frozen=True)
class AlmostAffineQuiver:
    """Star quiver with strictly decreasing leg dimensions, a full last leg
    N-2,...,1 and adjacent dimensions summing to 2(N-1)."""

    graph: StarGraph
    dims: DimensionVector

    def __post_init__(self):
        g, d = self.graph, self.dims
        if len(d) != g.node_count:
            raise ValueError("dimension vector length mismatch")
        if g.num_legs < 3:
            raise ValueError("almost affine quivers need at least 3 legs")
        n_center = d[g.center]
        for j in range(g.num_legs):
            seq = [n_center] + [d[k] for k in g.leg_nodes(j)]
            if any(a <= b for a, b in zip(seq, seq[1:])):
                raise ValueError(f"dimensions do not strictly decrease on leg {j}")
        full = [d[k] for k in g.leg_nodes(g.num_legs - 1)]
        if full != list(range(n_center - 1, 0, -1)):
            raise ValueError("last leg is not full")
        adj = sum(d[g.leg_nodes(j)[0]] for j in range(g.num_legs))
        if adj != 2 * n_center:
            raise ValueError("adjacent dimensions do not sum to 2(N-1)")

    @property
    def big_n(self) -> int:
        """N, one more than the central dimension."""
        return self.dims[self.graph.center] + 1

    @property
    def full_leg(self) -> int:
        return self.graph.num_legs - 1

    @classmethod
    def affine(cls, name: str) -> "AlmostAffineQuiver":
        g = StarGraph.affine(name)
        return cls(g, DimensionVector.delta(g))


@dataclass(frozen=True)
class IncrementedQuiver:
    """The incremented quiver Q+ of an almost affine quiver, with the node
    correspondence needed to move parameters back and forth."""

    base: AlmostAffineQuiver

    @cached_property
    def graph(self) -> StarGraph:
        legs = list(self.base.graph.legs)
        legs[-1] += 1
        return StarGraph(tuple(legs))

    @cached_property
    def dims(self) -> DimensionVector:
        gb, db = self.base.graph, self.base.dims
        g = self.graph
        n = self.base.big_n
        d = [0] * g.node_count
        d[g.center] = n
        for j in range(gb.num_legs - 1):
            for src, dst in zip(gb.leg_nodes(j), g.leg_nodes(j)):
                d[dst] = db[src]
        full = g.leg_nodes(g.num_legs - 1)
        for k, node in enumerate(full):
            d[node] = n - 1 - k
        return DimensionVector(tuple(d))

    @property
    def full_leg(self) -> int:
        return self.graph.num_legs - 1

    @property
    def big_n(self) -> int:
        return self.base.big_n

    @cached_property
    def adjacent_nodes(self) -> tuple[int, ...]:
        """Q+ nodes adjacent to the centre on the non-full legs."""
        g = self.graph
        return tuple(g.leg_nodes(j)[0] for j in range(g.num_legs - 1))

    @cached_property
    def block_sizes(self) -> tuple[int, ...]:
        """Dimensions n_i at the non-full adjacent nodes; they sum to N."""
        sizes = tuple(self.dims[k] for k in self.adjacent_nodes)
        assert sum(sizes) == self.big_n
        return sizes

    def to_plus(self, node: int) -> int:
        """Map a node of the base quiver into Q+ (the base centre lands on
        the top of the full leg)."""
        gb, g = self.base.graph, self.graph
        if node == gb.center:
            return g.leg_nodes(self.full_leg)[0]
        leg, pos = gb.leg_of(node)
        if leg == self.base.full_leg:
            return g.leg_nodes(self.full_leg)[pos]
        return g.leg_nodes(leg)[pos - 1]


def embed_params(inc: IncrementedQuiver, lam: ParamVector) -> ParamVector:
    """Parameters of Q+ whose projection is lam; the Q+ centre gets 0 (the
    canonical section of pr)."""
    gb = inc.base.graph
    if len(lam) != gb.node_count:
        raise ValueError("parameter length mismatch with base quiver")
    vals = [None] * inc.graph.node_count
    vals[inc.graph.center] = Fraction(0)
    for node in range(gb.node_count):
        vals[inc.to_plus(node)] = lam[node]
    return ParamVector(tuple(vals))


def shift_params(inc: IncrementedQuiver, lam: ParamVector, shift) -> ParamVector:
    """Scalar shift lam(Lambda): the centre gains Lambda, the adjacent node
    of every non-full leg loses it.  Preserves lam . Delta."""
    g = inc.graph
    vals = list(lam.values)
    vals[g.center] = vals[g.center] + shift
    for node in inc.adjacent_nodes:
        vals[node] = vals[node] - shift
    return ParamVector(tuple(vals))


def project_params(inc: IncrementedQuiver, lam: ParamVector) -> ParamVector:
    """pr(lam): shift so the centre vanishes, delete it, and contract the
    top joint of the full leg into the new centre."""
    g = inc.graph
    shifted = shift_params(inc, lam, -lam[g.center])
    gb = inc.base.graph
    vals = [None] * gb.node_count
    for node in range(gb.node_count):
        vals[node] = shifted[inc.to_plus(node)]
    return ParamVector(tuple(vals))


def permute_params(inc: IncrementedQuiver, lam: ParamVector) -> ParamVector:
    """per(lam): the parameter change corresponding to swapping the first
    two eigenvalues of the full-leg residue orbit.

    With mu1 = centre and mu2, mu3 the first two full-leg parameters:
    mu1' = mu1 + mu2, mu2' = -mu2, mu3' = mu2 + mu3.  An involution.
    """
    g = inc.graph
    full = g.leg_nodes(inc.full_leg)
    c, f1 = g.center, full[0]
    vals = list(lam.values)
    mu2 = vals[f1]
    vals[c] = vals[c] + mu2
    vals[f1] = -mu2
    if len(full) >= 2:
        vals[full[1]] = vals[full[1]] + mu2
    return ParamVector(tuple(vals))


# ---------------------------------------------------------------------------
# exact moment-map solutions down a leg (used as the eigenvalue oracle)


def _random_exact_matrix(rows: int, cols: int, rng: random.Random):
    return ratlin.mat([[Fraction(rng.randint(-9, 9), rng.randint(1, 5))
                        for _ in range(cols)] for _ in range(rows)])


def _random_full_rank(rows: int, cols: int, rng: random.Random):
    while True:
        m = _random_exact_matrix(rows, cols, rng)
        if ratlin.rank(m) == min(rows, cols):
            return m


def leg_chain_rep(dims, lam_values, seed=0) -> QuiverRep:
    """Exact representation of a single-leg star (a chain) whose moment map
    takes the scalar value lam_values[k] at the k-th leg node.

    dims lists the dimensions from the centre outward (e.g. (4, 3, 2, 1));
    lam_values has one entry per leg node, centre excluded, ordered from
    the node adjacent to the centre outward.  The centre node carries no
    condition; its moment-map value is phi_e1 o phi_e1*.
    """
    dims = tuple(int(d) for d in dims)
    if len(lam_values) != len(dims) - 1:
        raise ValueError("need one parameter per leg node")
    if any(a <= b for a, b in zip(dims, dims[1:])):
        raise ValueError("leg dimensions must strictly decrease")
    rng = random.Random(seed)
    g = StarGraph((len(dims) - 1,))
    lam = [Fraction(x) if isinstance(x, int) else x for x in lam_values]
    deep = len(dims) - 1
    phi, phi_star = {}, {}
    # walk from the outermost node inward; t_j = phi_e_j* phi_e_j
    t = None
    for j in range(deep, 0, -1):
        d_in, d_out = dims[j - 1], dims[j]
        if t is None:
            target = ratlin.mscale(-lam[j - 1], ratlin.identity(d_out))
        else:
            target = ratlin.msub(s, ratlin.mscale(lam[j - 1], ratlin.identity(d_out)))
        f = _random_full_rank(d_in, d_out, rng)
        b = ratlin.mmul(target, ratlin.left_pseudo_inverse(f))
        edge = (g.leg_nodes(0)[j - 1], g.center if j == 1 else g.leg_nodes(0)[j - 2])
        phi[edge] = f
        phi_star[edge] = b
        s = ratlin.mmul(f, b)
        t = target
    return QuiverRep(g, DimensionVector(dims), phi, phi_star)


def leg_top_composite(rep: QuiverRep):
    """phi_e1 o phi_e1* at the centre of a single-leg representation."""
    g = rep.graph
    edge = (g.leg_nodes(0)[0], g.center)
    return ratlin.mmul(rep.phi[edge], rep.phi_star[edge])
