"""Star-shaped Dynkin diagrams and their Weyl groups, in exact arithmetic.

A star graph has one centre of degree m and m legs.  The affine types
handled here are recognised by their leg-length signatures

    D4: (1,1,1,1)    E6: (2,2,2)    E7: (1,3,3)    E8: (1,2,5)

Canonical node indexing: centre = 0, then the legs in nondecreasing length
order, walking outward, so a leg of length k occupies k consecutive
indices.  The extending node of an affine diagram is the free end of the
last (longest) leg, i.e. the node with the highest index.

Simple reflections act on integer root vectors by s_i(b) = b - (b, e_i) e_i
and dually on parameter vectors by r_i(lam) = lam - lam_i * alpha_i, where
alpha_i is the i-th row of the Cartan matrix read as an element of C^I.
Both are implemented exactly (Fraction / GaussianRational entries), and
the root pairings in Python integers: the module needs nothing beyond the
standard library.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction
from functools import cached_property

from .ratlin import GaussianRational, smith_diagonal

AFFINE_LEGS = {
    "D4": (1, 1, 1, 1),
    "E6": (2, 2, 2),
    "E7": (1, 3, 3),
    "E8": (1, 2, 5),
}

COXETER_NUMBER = {"D4": 6, "E6": 12, "E7": 18, "E8": 30}

# |W| for the finite Weyl groups, used only for divisibility spot checks
WEYL_ORDER = {"D4": 192, "E6": 51840, "E7": 2903040, "E8": 696729600}

AFFINE_TYPES = tuple(AFFINE_LEGS)


class Frozen:
    """Immutable value base (a frozen dataclass without its import): the
    attributes named in _fields, set in __init__ by object.__setattr__, give
    ==, hash((field, ...)) and repr; the classes built on every path return
    that tuple from their own _key.  No __slots__, so cached_property works."""

    def _key(self) -> tuple:
        return tuple(getattr(self, f) for f in self._fields)

    def __eq__(self, other):
        return (self._key() == other._key() if other.__class__ is self.__class__
                else NotImplemented)

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value=None):
        raise AttributeError(f"{type(self).__qualname__}.{name} is read-only")

    __delattr__ = __setattr__


class StarGraph(Frozen):
    """Star-shaped graph with canonical node indexing (centre = 0)."""

    _fields = ("legs",)

    def __init__(self, legs: tuple[int, ...]):
        legs = tuple(sorted(int(k) for k in legs))
        if len(legs) < 1 or legs[0] < 1:
            raise ValueError(f"invalid leg lengths {legs}")
        object.__setattr__(self, "legs", legs)

    def _key(self) -> tuple:
        return (self.legs,)

    @classmethod
    def affine(cls, name: str) -> "StarGraph":
        if name not in AFFINE_LEGS:
            raise ValueError(f"unknown affine type {name!r}")
        return cls(AFFINE_LEGS[name])

    @property
    def num_legs(self) -> int:
        return len(self.legs)

    @property
    def node_count(self) -> int:
        return 1 + sum(self.legs)

    @property
    def center(self) -> int:
        return 0

    @property
    def extending(self) -> int:
        return self.node_count - 1

    def leg_nodes(self, j: int) -> tuple[int, ...]:
        """Node indices of leg j (0-based), from the centre outward."""
        start = 1 + sum(self.legs[:j])
        return tuple(range(start, start + self.legs[j]))

    @cached_property
    def edges(self) -> tuple[tuple[int, int], ...]:
        """Directed edges (tail, head), all pointing toward the centre."""
        out = []
        for j in range(self.num_legs):
            nodes = self.leg_nodes(j)
            prev = self.center
            for n in nodes:
                out.append((n, prev))
                prev = n
        return tuple(out)

    @cached_property
    def neighbors(self) -> tuple[tuple[int, ...], ...]:
        adj = [[] for _ in range(self.node_count)]
        for t, h in self.edges:
            adj[t].append(h)
            adj[h].append(t)
        return tuple(tuple(sorted(a)) for a in adj)

    def leg_of(self, node: int):
        """(leg index, 1-based position from centre) or None for the centre."""
        if node == self.center:
            return None
        for j in range(self.num_legs):
            nodes = self.leg_nodes(j)
            if node in nodes:
                return (j, nodes.index(node) + 1)
        raise ValueError(f"node {node} out of range")

    @cached_property
    def affine_type(self):
        for name, legs in AFFINE_LEGS.items():
            if self.legs == legs:
                return name
        return None

    @cached_property
    def cartan(self) -> tuple[tuple[int, ...], ...]:
        return _cartan(self.legs)

    @cached_property
    def delta(self) -> "RootVector":
        """Primitive integer kernel vector of the Cartan matrix (affine only)."""
        return _delta(self.legs)

    @property
    def finite_nodes(self) -> tuple[int, ...]:
        """All nodes except the extending one (contiguous by construction)."""
        return tuple(range(self.node_count - 1))

    def extending_entry(self, coords):
        """The extending entry -sum delta_i c_i that completes the finite
        coordinates c to a level-zero vector (delta_ext = 1)."""
        return -sum(self.delta[i] * c for i, c in zip(self.finite_nodes, coords))

    def __repr__(self):
        t = self.affine_type
        return f"StarGraph{self.legs}" + (f"<affine {t}>" if t else "")


# Tables per leg signature: every StarGraph with the same legs (built by
# StarGraph.affine, serialize.system_in or sakai.dynkin_graph) shares them.


@functools.lru_cache(maxsize=64)
def _cartan(legs: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
    """C = 2*Id - A for the (simply laced) star graph, as int rows."""
    nbrs = StarGraph(legs).neighbors
    n = len(nbrs)
    return tuple(tuple(2 if i == j else -1 if j in nbrs[i] else 0
                       for j in range(n)) for i in range(n))


@functools.lru_cache(maxsize=64)
def _delta(legs: tuple[int, ...]) -> "RootVector":
    """The null root.  Along a leg of length L a kernel vector of C falls
    linearly from the centre, x_j = x_0 (L + 1 - j) / (L + 1), so ker C is
    a line exactly when the centre's row vanishes too: sum 1/(L + 1) is the
    number of legs minus 2.  Then x_0 = lcm(L + 1) gives the primitive
    integer vector, whose extending entry is 1 on each affine signature."""
    if sum(Fraction(1, n + 1) for n in legs) != len(legs) - 2:
        raise ValueError("graph is not of affine type: ker C is not a line")
    x0 = math.lcm(*(n + 1 for n in legs))
    return RootVector((x0,) + tuple(x0 // (n + 1) * (n + 1 - j) for n in legs
                                    for j in range(1, n + 1)))


def finite_cartan(g: StarGraph) -> tuple[tuple[int, ...], ...]:
    """Cartan matrix restricted to the non-extending nodes."""
    fin = g.finite_nodes
    c = g.cartan
    return tuple(tuple(c[i][j] for j in fin) for i in fin)


class RootVector(Frozen):
    """Integer vector over a node index set (roots, dimension vectors)."""

    _fields = ("coords",)

    def __init__(self, coords: tuple[int, ...]):
        object.__setattr__(self, "coords", tuple(int(x) for x in coords))

    def _key(self) -> tuple:
        return (self.coords,)

    def __getitem__(self, i):
        return self.coords[i]

    def __len__(self):
        return len(self.coords)

    def __add__(self, other):
        return RootVector(tuple(a + b for a, b in zip(self.coords, other.coords)))

    def __sub__(self, other):
        return RootVector(tuple(a - b for a, b in zip(self.coords, other.coords)))

    def __neg__(self):
        return RootVector(tuple(-a for a in self.coords))

    def dot(self, values) -> object:
        """Pairing sum_i coords_i * values_i (values exact or numeric)."""
        acc = 0
        for c, v in zip(self.coords, values):
            acc = acc + c * v
        return acc


def _integer_parts(values) -> tuple[list, int]:
    """(ints, den): ints[k] is the (re, im) pair of Python ints equal to
    values[k] times den, the common denominator of every part."""
    parts = [(v.re, v.im) if isinstance(v, GaussianRational) else (v, 0)
             for v in values]
    den = math.lcm(*(x.denominator for pair in parts for x in pair))
    return [(re.numerator * (den // re.denominator),
             im.numerator * (den // im.denominator)) for re, im in parts], den


class ParamVector(Frozen):
    """Parameter vector lam over a node index set, exact by construction.

    An int entry becomes a Fraction, and so does a GaussianRational with
    zero imaginary part; Fraction and other GaussianRational entries are
    kept, anything else raises TypeError.  The field tag is "Q" when every
    entry is rational, else "Qi", whatever the spelling of the values.
    """

    _fields = ("values",)

    def __init__(self, values: tuple):
        vals = []
        for v in values:
            if not isinstance(v, Fraction):
                if isinstance(v, GaussianRational):
                    v = v.re if v.im == 0 else v
                elif isinstance(v, int):
                    v = Fraction(v)
                else:
                    raise TypeError(f"parameter entries must be exact, got {v!r}")
            vals.append(v)
        object.__setattr__(self, "values", tuple(vals))

    def _key(self) -> tuple:
        return (self.values,)

    @property
    def field(self) -> str:
        return "Q" if all(isinstance(v, Fraction) for v in self.values) else "Qi"

    def __getitem__(self, i):
        return self.values[i]

    def __len__(self):
        return len(self.values)

    def level(self, delta: RootVector):
        """lam . delta = sum_i delta_i lam_i."""
        return delta.dot(self.values)

    def is_level_zero(self, delta: RootVector) -> bool:
        """level(delta) == 0, in integers over the common denominator."""
        ints, _ = _integer_parts(self.values)
        return all(delta.dot(part) == 0 for part in zip(*ints))

    def replace(self, i: int, value) -> "ParamVector":
        vals = list(self.values)
        vals[i] = value
        return ParamVector(tuple(vals))

    def __add__(self, other):
        ov = other.values if isinstance(other, ParamVector) else other
        return ParamVector(tuple(a + b for a, b in zip(self.values, ov)))

    def __sub__(self, other):
        ov = other.values if isinstance(other, ParamVector) else other
        return ParamVector(tuple(a - b for a, b in zip(self.values, ov)))

    def scale(self, c) -> "ParamVector":
        return ParamVector(tuple(c * v for v in self.values))


def reflect_root(g: StarGraph, i: int, beta: RootVector) -> RootVector:
    """s_i(beta) = beta - (beta, e_i) e_i with (,) the Cartan form."""
    row = g.cartan[i]
    pairing = sum(row[j] * beta[j] for j in range(g.node_count))
    coords = list(beta.coords)
    coords[i] -= pairing
    return RootVector(tuple(coords))


def reflect_param(g: StarGraph, i: int, lam: ParamVector) -> ParamVector:
    """r_i(lam) = lam - lam_i * alpha_i."""
    li = lam[i]
    return ParamVector(tuple(v - li * c
                             for v, c in zip(lam.values, g.cartan[i])))


def coxeter_exponent(g: StarGraph, i: int, j: int) -> int:
    """Order m_ij of r_i r_j: 3 if i,j joined by an edge, else 2."""
    if i == j:
        return 1
    return 3 if j in g.neighbors[i] else 2


# ---------------------------------------------------------------------------
# root enumeration (finite system living on the non-extending nodes)


@functools.lru_cache(maxsize=64)
def _root_table(legs: tuple[int, ...]):
    """(roots, steps) of the finite system, with no data special to a type.

    The positive roots grow from the simple ones: in a simply laced
    system a positive root b plus a simple root e_i is a root exactly
    when (b, e_i) = -1.  roots is in enumerate_roots order (the positive
    roots decreasing, then the same reversed and negated).  steps holds
    (root, parent, node) for every positive root, parents first: root k
    is root parent plus the simple root of node, and a simple root has
    parent -1."""
    c = finite_cartan(StarGraph(legs))
    r = len(c)
    found = [tuple(1 if k == i else 0 for k in range(r)) for i in range(r)]
    grown = {root: (None, i) for i, root in enumerate(found)}
    for root in found:  # grows while it is walked, in order of height
        for i in range(r):
            if sum(c[i][j] * root[j] for j in range(r)) == -1:
                up = root[:i] + (root[i] + 1,) + root[i + 1:]
                if up not in grown:
                    grown[up] = (root, i)
                    found.append(up)
    pos = sorted(found, reverse=True)
    index = {root: k for k, root in enumerate(pos)}
    index[None] = -1
    steps = tuple((index[root], index[grown[root][0]], grown[root][1])
                  for root in found)
    roots = pos + [tuple(-x for x in root) for root in reversed(pos)]
    return tuple(RootVector(v) for v in roots), steps


def enumerate_roots(g: StarGraph) -> tuple[RootVector, ...]:
    """All roots of the finite system, as coefficient vectors in the
    simple-root basis indexed by the non-extending nodes.

    Sorted in decreasing lexicographic order, so every positive root comes
    before every negative one.
    """
    return _root_table(g.legs)[0]


def positive_roots(g: StarGraph) -> tuple[RootVector, ...]:
    """The first half of enumerate_roots: one root of each pair r, -r."""
    roots = enumerate_roots(g)
    return roots[:len(roots) // 2]


def root_pairing(root: RootVector, lam: ParamVector):
    """((lam, root)) = sum_i c_i lam_i over the non-extending nodes.

    Valid for level-zero lam, where ((lam, alpha_i)) = lam_i.  The
    single-root reference for root_pairings.
    """
    return sum((c * lam[i] for i, c in enumerate(root.coords)), Fraction(0))


def root_pairings(g: StarGraph, lam: ParamVector) -> tuple[list, int]:
    """((lam, root)) for every root of enumerate_roots(g), exactly, in
    integer arithmetic.

    Returns (num, den): num[k] is the (re, im) pair of Python ints equal
    to the k-th pairing times den, the common denominator of the finite
    entries of lam.  Each positive pairing is its parent's plus one entry
    of lam (_root_table); the negative half is the positive half reversed
    and negated.
    """
    steps = _root_table(g.legs)[1]
    ints, den = _integer_parts(lam.values[:g.node_count - 1])
    pos = [(0, 0)] * (len(steps) + 1)  # pos[-1], the parent of a simple root
    for k, parent, node in steps:
        re, im = pos[parent]
        a, b = ints[node]
        pos[k] = (re + a, im + b)
    pos.pop()
    return pos + [(-re, -im) for re, im in reversed(pos)], den


def smallest_root_pairing(g: StarGraph, lam: ParamVector) -> float:
    """min |((lam, root))| over the finite roots: how far lam sits from the
    nearest root hyperplane (0 on a wall).

    Equal, bit for bit, to the minimum of abs(to_complex(root_pairing)):
    rounding a rational is monotone, and int / int rounds correctly.
    """
    num, den = root_pairings(g, lam)
    pos = num[:len(num) // 2]
    if not any(im for _, im in pos):
        return min(abs(re) for re, _ in pos) / den
    return min(abs(complex(re / den, im / den)) for re, im in pos)


def is_regular(g: StarGraph, lam: ParamVector):
    """(flag, violated roots): flag is True iff no root pairing vanishes."""
    if not lam.is_level_zero(g.delta):
        raise ValueError("is_regular expects a level-zero parameter vector")
    num, _ = root_pairings(g, lam)
    violated = tuple(r for r, p in zip(enumerate_roots(g), num)
                     if p == (0, 0))
    return (len(violated) == 0, violated)


def hyperplane_count(g: StarGraph) -> int:
    return len(positive_roots(g))


# ---------------------------------------------------------------------------
# weight lattice P(R) and the extended affine Weyl group


def weight_lattice_member(g: StarGraph, mu) -> bool:
    """mu in P(R) = { lam | lam_i in Z, lam . delta = 0 }; a vector of the
    wrong length, or with an entry ParamVector refuses, is not."""
    try:  # ParamVector entries are Fractions, or Gaussian off the real line
        vals = (mu if isinstance(mu, ParamVector) else ParamVector(tuple(mu))).values
    except TypeError:
        return False
    if len(vals) != g.node_count or not all(
            isinstance(v, Fraction) and v.denominator == 1 for v in vals):
        return False
    return g.delta.dot([v.numerator for v in vals]) == 0


def weight_lattice_basis(g: StarGraph) -> tuple[RootVector, ...]:
    """Z-basis of P(R): for each non-extending node i the vector
    e_i - delta_i * e_ext."""
    delta = g.delta
    ext = g.extending
    basis = []
    for i in g.finite_nodes:
        v = [0] * g.node_count
        v[i] = 1
        v[ext] = -delta[i]
        basis.append(RootVector(tuple(v)))
    return tuple(basis)


def lattice_index(g: StarGraph) -> int:
    """[P(R):Q(R)] = product of the Smith diagonal of the finite Cartan."""
    return math.prod(smith_diagonal(finite_cartan(g)))


class AffineWeylElement(Frozen):
    """Word in the generators r_0..r_r plus an integral translation mu
    with mu . delta = 0.

    Acting on lam: first translate (lam + mu), then apply the word right
    to left, i.e. word (i1,...,ik) acts as r_i1 o ... o r_ik.
    """

    _fields = ("word", "translation")

    def __init__(self, word: tuple = (), translation: tuple = ()):
        object.__setattr__(self, "word", word)
        object.__setattr__(self, "translation", translation)

    @classmethod
    def identity(cls, g: StarGraph) -> "AffineWeylElement":
        return cls((), (0,) * g.node_count)

    def validate(self, g: StarGraph):
        if self.translation:
            if len(self.translation) != g.node_count:
                raise ValueError("translation length mismatch")
            if not weight_lattice_member(g, self.translation):
                raise ValueError("translation must be integral and level zero")
        for i in self.word:
            if not 0 <= i < g.node_count:
                raise ValueError(f"generator index {i} out of range")


def apply_affine(g: StarGraph, elt: AffineWeylElement, lam: ParamVector) -> ParamVector:
    elt.validate(g)
    out = lam
    if elt.translation:
        out = out + tuple(Fraction(t) for t in elt.translation)
    for i in reversed(elt.word):
        out = reflect_param(g, i, out)
    return out


def weyl_orbit(g: StarGraph, lam: ParamVector):
    """Orbit of lam under the finite reflections r_i (exact BFS)."""
    seen = {lam.values}
    frontier = [lam]
    while frontier:
        nxt = []
        for v in frontier:
            for i in g.finite_nodes:
                w = reflect_param(g, i, v)
                if w.values not in seen:
                    seen.add(w.values)
                    nxt.append(w)
                    if len(seen) > 10 ** 6:
                        raise RuntimeError("orbit exceeded limit")
        frontier = nxt
    return seen


# ---------------------------------------------------------------------------
# diagram automorphisms exposed as parameter permutations


def leg_node_permutation(g: StarGraph, leg_pairs) -> tuple[int, ...]:
    """Node permutation moving each node of leg src to the same position on
    leg dst, for the (src, dst) leg pairs given; other nodes stay."""
    perm = list(range(g.node_count))
    for src, dst in leg_pairs:
        for a, b in zip(g.leg_nodes(src), g.leg_nodes(dst)):
            perm[a] = b
    return tuple(perm)


def permute_param(lam: ParamVector, perm: tuple[int, ...]) -> ParamVector:
    vals = [None] * len(perm)
    for src, dst in enumerate(perm):
        vals[dst] = lam[src]
    return ParamVector(tuple(vals))
