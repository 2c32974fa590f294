"""Matrix-level affine Weyl symmetries of Fuchsian systems.

Leg reflections permute eigenvalues of a residue.  The central reflection
passes to the incremented rank: every residue is rank-factored, the
factors are stacked into an N x N pair (P, Q), the full-leg eigenvalue
relabelling and a scalar shift of B = PQ (middle convolution) are applied
there, and the result is compressed back to rank N-1 along the kernel of
QP.  Translations of the weight lattice P(R) are realised by elementary
Schlesinger steps: rational gauge transformations with a rank-one
projector built from an eigenvector of the source residue and a left
eigenvector of the target residue, moving one exponent up and one down.

Every operation updates the exact parameter vector by the corresponding
exact formula and verifies the floating-point matrices against the
predicted orbit data, erroring on non-generic input rather than
repairing it.
"""

from __future__ import annotations

import functools
import itertools
import random
from dataclasses import dataclass, replace
from fractions import Fraction

import numpy as np

from .dynkin import (
    ParamVector,
    StarGraph,
    leg_node_permutation,
    permute_param,
    reflect_param,
    smallest_root_pairing,
    weight_lattice_member,
)
from .errors import DegeneracyError
from .fuchsian import (
    FuchsianSystem,
    OrbitSpec,
    _char_poly_distances,
    _check_orbits,
    _multiset,
    _tr_gauss_newton,
    balance,
    balance_gauge,
    closing_residue,
    make_system,
    normalize,
    orbit_from_leg,
    predicted_specs,
    signature,
)
from .quiver import (
    AlmostAffineQuiver,
    DimensionVector,
    IncrementedQuiver,
    embed_params,
    permute_params,
    project_params,
    shift_params,
)
from .ratlin import smith_diagonal, to_complex as _cx
from .tolerances import (
    DEFAULT_TOL,
    DRIFT_GUARD,
    GAUGE_TOL,
    ORBIT_TOL,
    PAIRING_FLOOR,
    POLISH_ACCEPT,
    POLISH_TRIGGER,
    ZERO_CUTOFF,
)


# ---------------------------------------------------------------------------
# incremented (P, Q) pairs


@dataclass(frozen=True)
class IncrementedPair:
    """Block factorisation (P, Q) living on the incremented quiver.

    P stacks the maps C^N -> C^{n_i}, Q concatenates the maps back, one
    block per finite pole; B = PQ has the breve orbit data on its diagonal
    blocks and QP lies in the big orbit determined by the full leg.
    """

    inc: IncrementedQuiver
    lam_plus: ParamVector
    p: np.ndarray
    q: np.ndarray
    poles: tuple
    tol: float = DEFAULT_TOL

    def __post_init__(self):
        for a in (self.p, self.q):
            np.asarray(a).setflags(write=False)

    @property
    def qp(self) -> np.ndarray:
        return self.q @ self.p

    @functools.cached_property
    def breve_specs(self) -> tuple[OrbitSpec, ...]:
        """Per-block target orbits: the leg orbit with the centre removed,
        starting at minus the adjacent parameter."""
        g, d, lam = self.inc.graph, self.inc.dims, self.lam_plus
        out = []
        for j in range(g.num_legs - 1):
            top, *rest = g.leg_nodes(j)
            out.append(orbit_from_leg(d[top], [d[k] for k in rest],
                                      [lam[k] for k in rest], first=-lam[top]))
        return tuple(out)

    @functools.cached_property
    def hat_spec(self) -> OrbitSpec:
        """Orbit of QP: the full-leg orbit of the negated parameters,
        starting at the centre parameter."""
        g, lam = self.inc.graph, self.lam_plus
        nodes = g.leg_nodes(self.inc.full_leg)
        return orbit_from_leg(self.inc.big_n, [self.inc.dims[k] for k in nodes],
                              [-lam[k] for k in nodes], first=lam[g.center])

    def verify(self):
        breves = self.breve_specs
        hat = self.hat_spec
        # trace compatibility (the breve traces sum to the hat trace): lam . Delta = 0
        if not self.lam_plus.is_level_zero(self.inc.dims):
            raise ValueError("trace compatibility fails: lam . Delta != 0")
        pieces = [(self.qp, hat)] + [(self.p[sl, :] @ self.q[:, sl], spec)
                                     for sl, spec in zip(self.inc.block_slices, breves)]
        return _check_orbits(pieces, self.tol, "pair")


@functools.lru_cache(maxsize=64)
def _incremented(graph: StarGraph) -> IncrementedQuiver:
    """Q+ of the affine quiver on graph, built once per leg signature."""
    return IncrementedQuiver(AlmostAffineQuiver(graph, DimensionVector.delta(graph)))


def lift(sys: FuchsianSystem) -> IncrementedPair:
    """Rank-factor the finite residues and stack them into an incremented
    pair with Q_i P_i = diag(A_i, 0)."""
    if sys.normalization != "det_zero":
        raise ValueError("lift expects a determinant-zero normalised system")
    inc = _incremented(sys.graph)
    n = sys.n
    p = np.zeros((inc.big_n, inc.big_n), dtype=complex)
    q = p.copy()
    for i, (a, sl) in enumerate(zip(sys.finite_residues, inc.block_slices)):
        u, s, vh = np.linalg.svd(a)
        scale = max(s[0], 1.0)
        rank = int(np.sum(s > sys.tol * scale))
        if rank != sl.stop - sl.start:
            raise DegeneracyError(f"residue {i} has numerical rank {rank}, "
                                  f"expected {sl.stop - sl.start}")
        root = np.sqrt(s[:rank])
        p[sl, :n] = root[:, None] * vh[:rank, :]
        q[:n, sl] = u[:, :rank] * root[None, :]
    pair = IncrementedPair(inc, embed_params(inc, sys.lam), p, q, sys.poles, sys.tol)
    pair.verify()
    return pair


def scalar_shift(pair: IncrementedPair, shift) -> IncrementedPair:
    """Middle-convolution shift: move to the GIT representative with
    Q = Id and replace B = PQ by B + shift."""
    lam_new = shift_params(pair.inc, pair.lam_plus, shift)
    b = pair.p @ pair.q + _cx(shift) * np.eye(pair.inc.big_n)
    out = IncrementedPair(pair.inc, lam_new, b, np.eye(pair.inc.big_n),
                          pair.poles, pair.tol)
    out.verify()
    return out


def _orbit_keys(pair: IncrementedPair) -> list:
    return [s.orbit_key for s in (pair.hat_spec,) + pair.breve_specs]


def relabel_first_two(pair: IncrementedPair) -> IncrementedPair:
    """Swap the first two eigenvalues of the full-leg orbit of a verified
    pair (as lift, scalar_shift and relabel_first_two return): a pure
    relabelling, so only the parameters move.  The matrices stay, and the
    swap changes no piece's OrbitSpec.orbit_key (what the orbit test reads
    of a spec), so the new pair passes the test the old one passed; it is
    verified again only if some orbit_key changed."""
    lam_new = permute_params(pair.inc, pair.lam_plus)
    out = replace(pair, lam_plus=lam_new)
    if _orbit_keys(out) != _orbit_keys(pair):
        out.verify()
    return out


def project(pair: IncrementedPair) -> FuchsianSystem:
    """Compress the blocks Q_i P_i to the sum V of nonzero eigenspaces of
    QP along its kernel, producing the rank N-1 system with parameters
    pr(lam).  Requires the central component of lam to vanish so that QP
    has a simple zero eigenvalue."""
    g = pair.inc.graph
    if pair.lam_plus[g.center] != 0:
        raise ValueError("project requires a zero central parameter; "
                         "apply scalar_shift first")
    hat = pair.hat_spec
    zero_mult = sum(m for v, m in hat.entries if v == 0)
    if zero_mult != 1:
        raise DegeneracyError(
            f"QP needs a simple zero eigenvalue, spec has multiplicity {zero_mult}")
    w = pair.qp
    vals, vecs = np.linalg.eig(w)
    scale = max(1.0, float(np.max(np.abs(vals))))
    order = np.argsort(np.abs(vals))
    if abs(vals[order[0]]) > ZERO_CUTOFF * scale or \
            abs(vals[order[1]]) < ZERO_CUTOFF * scale:
        raise DegeneracyError("zero eigenvalue of QP is not numerically simple")
    kernel = vecs[:, order[0]:order[0] + 1]
    others = vecs[:, [k for k in order[1:]]]
    von, _ = np.linalg.qr(others)
    basis = np.hstack([von, kernel])
    binv = np.linalg.inv(basis)
    n_out = pair.inc.big_n - 1
    finite = [(binv @ (pair.q[:, sl] @ pair.p[sl, :]) @ basis)[:n_out, :n_out]
              for sl in pair.inc.block_slices]
    lam_out = project_params(pair.inc, pair.lam_plus)
    return make_system(pair.inc.base.graph, pair.poles, finite, lam_out,
                       tol=max(pair.tol, ORBIT_TOL))


def central_reflection(sys: FuchsianSystem) -> FuchsianSystem:
    """The reflection at the central node, realised by lifting to the
    incremented pair, swapping the first two big-orbit eigenvalues, and
    shifting back down (middle convolution at Lambda = -nu)."""
    g = sys.graph
    nu = sys.lam[g.center]
    if nu == 0:
        raise DegeneracyError("central reflection needs nu != 0 "
                              "(lam fixed by the reflection)")
    sys0 = normalize(sys)
    pair = lift(sys0)
    pair = relabel_first_two(pair)
    pair = scalar_shift(pair, -nu)
    out = project(pair)
    expected = reflect_param(g, g.center, sys0.lam)
    if out.lam.values != expected.values:
        raise AssertionError("central reflection parameter track mismatch")
    return out


def leg_reflection(sys: FuchsianSystem, node: int) -> FuchsianSystem:
    """Reflection at a leg node: swaps two adjacent eigenvalues of one
    residue.  Matrices are unchanged except for the determinant-zero
    renormalisation when the swap touches the first slot."""
    g = sys.graph
    if node == g.center:
        raise ValueError("use central_reflection for the central node")
    leg, pos = g.leg_of(node)
    lam_new = reflect_param(g, node, sys.lam)
    specs = sys.specs
    spec = specs[leg]
    if pos >= spec.width:
        raise DegeneracyError("reflection swaps a degenerate eigenvalue pair")
    if spec.mults[pos - 1] != spec.mults[pos]:
        raise DegeneracyError("eigenvalue multiplicities differ across the swap")
    offsets = list(sys.offsets)
    if pos == 1:
        # new leading eigenvalue is the old second one
        offsets[leg] = spec.values[1]
    out = replace(sys, lam=lam_new, offsets=tuple(offsets))
    out.verify()
    if sys.normalization == "det_zero" and out.normalization != "det_zero":
        out = normalize(out)
    return out


def tensor_shift(sys: FuchsianSystem, shifts) -> FuchsianSystem:
    """Tensor by a scalar logarithmic connection: A_i += c_i at the finite
    poles, A_m -= sum c_i.  This is the normalisation freedom of the
    residues; the level-zero lam is unchanged (the exact update lives in
    the per-pole offsets), so the induced translation vector is zero."""
    cs = [Fraction(c) if isinstance(c, int) else c for c in shifts]
    if len(cs) != sys.m - 1:
        raise ValueError("need one shift per finite pole")
    finite = [a + _cx(c) * np.eye(sys.n)
              for a, c in zip(sys.finite_residues, cs)]
    offsets = tuple(o + c for o, c in zip(sys.offsets,
                                          cs + [-sum(cs, Fraction(0))]))
    return sys.with_residues(finite, offsets=offsets)


# ---------------------------------------------------------------------------
# Schlesinger steps


def _eigspace_basis(a: np.ndarray, value: complex):
    """Orthonormal basis of the eigenspace of a at the given (semisimple)
    eigenvalue, via the SVD null space of a - value (reliable also for
    repeated eigenvalues of non-normal matrices)."""
    shifted = a - value * np.eye(a.shape[0])
    _, s, vh = np.linalg.svd(shifted)
    scale = max(1.0, float(s[0]))
    sel = [k for k in range(len(s)) if s[k] < ZERO_CUTOFF * scale]
    if not sel:
        raise DegeneracyError(f"no eigenvalue of the residue near {value}")
    return vh[sel, :].conj().T


def _best_projector(a_up: np.ndarray, up_val: complex,
                    a_down: np.ndarray, down_val: complex):
    """Rank-one projector v w^T / (w^T v) with v an eigenvector of a_up at
    up_val and w^T a left eigenvector row of a_down at down_val, chosen
    inside the eigenspaces to maximise |w^T v| (an SVD of the overlap)."""
    vb = _eigspace_basis(a_up, up_val)
    wb = _eigspace_basis(a_down.T, down_val)
    overlap = wb.T @ vb
    u, s, vh = np.linalg.svd(overlap)
    if s[0] < PAIRING_FLOOR:
        raise DegeneracyError("eigenvector pairing is degenerate (w.v = 0)")
    v = vb @ vh[0].conj()
    w = wb @ u[:, 0].conj()
    denom = w @ v
    pi = np.outer(v, w) / denom
    return pi


def _gauge_factor(z, poles, up, down):
    """(f(z), 1/f(z)) for the scalar factor f(z) = (z - a_up)/(z - a_down)
    of the rank-one gauge G(z) = I + (f(z) - 1) pi; a pole at infinity
    (index len(poles)) drops its factor."""
    if up == len(poles):
        u = z - poles[down]
        return 1 / u, u
    f = z - poles[up]
    if down != len(poles):
        f = f / (z - poles[down])
    return f, 1 / f


def _unit_move(finite, poles, nu, up, up_val, down, down_val, rng):
    """One elementary Schlesinger move: exponent up_val -> up_val + 1 at
    pole `up`, down_val -> down_val - 1 at pole `down` (pole index
    len(poles) means infinity).  Returns the new finite residues, checked
    at random test points to reproduce G A G^{-1} + G' G^{-1} as a
    rational function."""
    inf = len(poles)
    eye = np.eye(finite[0].shape[0])
    mats = list(finite) + [closing_residue(finite, nu)]
    pi = _best_projector(mats[up], _cx(up_val), mats[down], _cx(down_val))

    def gauge(z):
        f, f_inv = _gauge_factor(z, poles, up, down)
        return eye + (f - 1) * pi, eye + (f_inv - 1) * pi

    def tilde(i):
        acc = np.zeros_like(finite[0])
        for k in range(inf):
            if k != i:
                acc += finite[k] / (poles[i] - poles[k])
        return acc

    out = list(finite)
    for k in range(inf):
        if k not in (up, down):
            g, g_inv = gauge(poles[k])
            out[k] = g @ finite[k] @ g_inv
    # the moving poles; an infinite partner drops the pole difference
    if up != inf:
        a, t = finite[up], tilde(up)
        if down == inf:
            moved = a - pi @ a + t @ pi - pi @ t @ pi
        else:
            moved = a - pi @ a + (poles[up] - poles[down]) * (t @ pi - pi @ t @ pi)
        out[up] = moved + (_cx(up_val) + 1) * pi
    if down != inf:
        a, t = finite[down], tilde(down)
        if up == inf:
            moved = a - a @ pi + pi @ t - pi @ t @ pi
        else:
            moved = a - a @ pi + (poles[down] - poles[up]) * (pi @ t - pi @ t @ pi)
        out[down] = moved + (_cx(down_val) - 1) * pi
    scale = max(1.0, max(float(np.linalg.norm(a)) for a in out))
    for _ in range(3):
        z = complex(rng.uniform(1.5, 4.0), rng.uniform(0.5, 2.0))
        g, g_inv = gauge(z)
        # G' G^{-1} = pi (1/(z - a_up) - 1/(z - a_down)), infinity dropped
        dlog = sum(s / (z - poles[p]) for p, s in ((up, 1), (down, -1))
                   if p != inf) * pi
        a_z = sum(a / (z - p) for a, p in zip(finite, poles))
        rhs = sum(a / (z - p) for a, p in zip(out, poles))
        err = float(np.linalg.norm(g @ a_z @ g_inv + dlog - rhs))
        if err > GAUGE_TOL * scale:
            raise DegeneracyError(f"gauge residue check failed ({err:.2e})")
    return out


def _pole_tables(t_shifts, mults, bound: int):
    """Up and total move counts of one pole for every per-pole constant c in
    [-bound, bound]: U[..., c + bound] = sum_j mults_j max(t_j + c, 0) and
    T[..., c + bound] = sum_j mults_j |t_j + c|.  The slots run along the last
    axis of t_shifts; leading axes (candidate vectors) are kept, and one slot
    is added at a time to keep the temporaries small."""
    t_shifts = np.asarray(t_shifts, dtype=np.int64)
    cs = np.arange(-bound, bound + 1)
    up = tot = np.zeros(t_shifts.shape[:-1] + cs.shape, dtype=np.int64)
    for j, mult in enumerate(mults):
        x = t_shifts[..., j, None] + cs
        up = up + mult * np.maximum(x, 0)
        tot = tot + mult * np.abs(x)
    return up, tot


def _plan_keys(mu_c, shifts, mults):
    """Keys of every choice of per-pole constants c_p with sum -mu_c (the
    tensoring freedom), for the N vectors with central components mu_c
    and pole-p slot shifts shifts[p] (multiplicities mults[p]).  The head
    c_0..c_{m-2} runs over [-B, B]^(m-1) in itertools.product order, B the
    largest per-vector bound max(|mu_c|, |shifts|) + 1, and the last
    constant closes the sum.  A choice makes half = sum_p U_p[c_p] moves
    (_pole_tables), of which forced = max(max_p T_p[c_p] - half, 0) pair up
    and down slots of one pole.  Yields blocks of at most _KEY_BLOCK keys
    forced * scale + half, shaped (N, H) and _MASKED where a constant lies
    outside that vector's own bound, with scale (above every half) and the
    (m - 1, H) heads."""
    mu_c = np.asarray(mu_c, dtype=np.int64)
    bound = np.maximum(np.abs(mu_c), np.abs(np.hstack(shifts)).max(axis=1)) + 1
    big = int(bound.max())
    ups, tots = zip(*(_pole_tables(t, mrow, big)
                      for t, mrow in zip(shifts, mults)))
    scale = sum(int(up.max()) for up in ups) + 1
    cube = (2 * big + 1,) * (len(mults) - 1)
    count, step = int(np.prod(cube)), max(1, _KEY_BLOCK // len(mu_c))
    for lo in range(0, count, step):
        heads = np.array(np.unravel_index(np.arange(lo, min(lo + step, count)),
                                          cube)) - big
        last = -mu_c[:, None] - heads.sum(axis=0)
        col = np.clip(last, -big, big) + big
        half = np.take_along_axis(ups[-1], col, axis=1)
        worst = np.take_along_axis(tots[-1], col, axis=1)
        for up, tot, c in zip(ups, tots, heads + big):
            half += up[:, c]
            np.maximum(worst, tot[:, c], out=worst)
        key = np.maximum(worst - half, 0) * scale + half
        ok = np.maximum(np.abs(last), np.abs(heads).max(axis=0)) <= bound[:, None]
        yield np.where(ok, key, _MASKED), scale, heads


_PLANS = 3        # ranked move plans translate tries
_MASKED = np.iinfo(np.int64).max  # key of constants outside a vector's bound
_KEY_BLOCK = 1 << 14  # keys per _plan_keys block, to keep its temporaries small


@functools.lru_cache(maxsize=64)
def _ranked_offsets(t_shifts: tuple, mults: tuple, mu_c: int):
    """The best _PLANS choices of per-pole constants, minimising first the
    number of same-pole up/down pairings that would need rerouting, then
    the total number of elementary moves (_plan_keys).  Distinct plans
    dodge distinct walls, so callers may retry down the list.  Returns
    ((cost, constants), ...); ties go to the smaller constants.  Memoised
    on tuples: every step along one translation vector asks for the same
    ranking."""
    ranked = []
    for keys, scale, heads in _plan_keys([mu_c], [[row] for row in t_shifts],
                                         mults):
        row = keys[0]
        valid = np.flatnonzero(row != _MASKED)
        for h in valid[np.argsort(row[valid], kind="stable")[:_PLANS]]:
            head = heads[:, h].tolist()
            ranked.append(((int(row[h]) // scale, int(row[h]) % scale),
                           tuple(head) + (int(-mu_c - sum(head)),)))
    return tuple(sorted(ranked)[:_PLANS])


def _move_profile(g: StarGraph, coords):
    """Per-pole slot shifts and multiplicities for the level-zero integral
    vector with the given finite coordinates; the eigenvalue shifts are
    (minus) the partial sums of the vector along each leg."""
    delta = g.delta
    full = list(coords) + [g.extending_entry(coords)]
    mu_c = full[g.center]
    t_shifts, mults = [], []
    for p in range(g.num_legs):
        nodes = g.leg_nodes(p)
        dims = [delta[g.center]] + [delta[k] for k in nodes] + [0]
        t_row, m_row = [0], [dims[0] - dims[1]]
        acc = 0
        for j, node in enumerate(nodes):
            acc -= full[node]
            t_row.append(acc)
            m_row.append(dims[j + 1] - dims[j + 2])
        t_shifts.append(t_row)
        mults.append(m_row)
    return mu_c, t_shifts, mults


def _min_offset_costs(g: StarGraph, coords) -> list:
    """The best cost _ranked_offsets(*_move_profile(g, c))[0][0] of every
    coordinate vector c in coords, scored all at once.  The profile is
    linear in the coordinates (the multiplicities do not depend on them),
    so the slot shifts of all vectors come from one integer matrix
    product, and the cost is the row minimum of their _plan_keys."""
    coords = np.asarray(coords, dtype=np.int64)
    units = [_move_profile(g, e)
             for e in np.eye(coords.shape[1], dtype=int).tolist()]
    mults = units[0][2]
    mu_c = coords @ np.array([u[0] for u in units])
    shifts = [coords @ np.array([u[1][p] for u in units])
              for p in range(len(mults))]
    best = np.full(len(coords), _MASKED)
    for keys, scale, _ in _plan_keys(mu_c, shifts, mults):
        np.minimum(best, keys.min(axis=1), out=best)
    return [(int(k) // scale, int(k) % scale) for k in best]


@functools.cache
def light_translation_basis(g: StarGraph) -> tuple[ParamVector, ...]:
    """A Z-basis of the weight lattice P(R) chosen to minimise the number
    of elementary Schlesinger moves per vector (the standard basis
    e_i - delta_i e_ext contains needlessly heavy directions).

    Every vector with coordinates in {-1, 0, 1} and a small extending
    component is scored by its best plan (_min_offset_costs); the lightest
    vectors, ties broken by coords, are taken greedily while they extend a
    unimodular set."""
    r = len(g.finite_nodes)
    # a large extending component is never move-light
    candidates = [coords for coords in itertools.product((-1, 0, 1), repeat=r)
                  if any(coords) and abs(g.extending_entry(coords)) <= 2]
    scored = sorted(zip(_min_offset_costs(g, candidates), candidates))
    chosen: list = []
    for _, coords in scored:
        trial = chosen + [coords]
        diag = smith_diagonal(trial)
        if len(diag) == len(trial) and all(d == 1 for d in diag):
            chosen.append(coords)
            if len(chosen) == r:
                break
    assert len(chosen) == r, "failed to assemble a unimodular basis"
    return tuple(ParamVector(tuple(Fraction(c) for c in coords)
                             + (Fraction(g.extending_entry(coords)),))
                 for coords in chosen)


def _plan_moves(sys: FuchsianSystem, mu: ParamVector):
    """Decompose the translation by mu into integer shifts of every
    eigenvalue copy, using the tensoring freedom to balance moves across
    the poles.  Returns (lam_new, ranked [(per-pole copy shifts,
    constants)])."""
    g = sys.graph
    lam_new = sys.lam + mu
    for old, new in zip(sys.specs, predicted_specs(g, lam_new)):
        if new.width != old.width or new.mults != old.mults:
            raise DegeneracyError(
                "translation lands on a wall (orbit type would change)")
    # mu is integral (translate checks it), so its entries are Fractions
    mu_c, t_shifts, mults = _move_profile(g, [int(mu[i]) for i in g.finite_nodes])
    plans = []
    for _, consts in _ranked_offsets(tuple(map(tuple, t_shifts)),
                                     tuple(map(tuple, mults)), mu_c):
        shifts = [[t + c for t, mult in zip(t_row, m_row) for _ in range(mult)]
                  for t_row, m_row, c in zip(t_shifts, mults, consts)]
        plans.append((shifts, consts))
    return lam_new, plans


def _run_moves(sys0: FuchsianSystem, shifts):
    """Run one plan from sys0, choosing each elementary move from the exact
    bookkeeping and executing it at once.

    shifts holds the integer shift of every eigenvalue copy of each pole,
    in spec.eigen_list() order; every copy is a slot of its own.  Pending
    moves pair in lexicographic slot order.  Returns (the new finite
    residues, the moved exact eigenvalue list of every pole).  Raises
    DegeneracyError when the bookkeeping cannot complete the plan, when a
    move fails or when the drift of a state after a move exceeds
    DRIFT_GUARD or is NaN."""
    values = [list(spec.eigen_list()) for spec in sys0.specs]
    keys = [spec.orbit_key[0] for spec in sys0.specs]  # _multiset of values
    left = [list(row) for row in shifts]
    m = len(values)
    finite = list(sys0.finite_residues)
    rng = random.Random(1)  # test points of the gauge checks

    def worst_drift(fin):
        # against the moved values; np.max, unlike max, keeps a NaN
        # distance wherever it sits
        return float(np.max(_char_poly_distances(
            list(fin) + [closing_residue(fin, sys0.nu)], keys)))

    for count in itertools.count():
        ups = [(p, c) for p in range(m) for c, d in enumerate(left[p]) if d > 0]
        downs = [(p, c) for p in range(m) for c, d in enumerate(left[p]) if d < 0]
        if not ups and not downs:
            return finite, values
        if count == 10000:
            raise DegeneracyError("translation planner did not terminate")
        if bool(ups) != bool(downs):
            raise DegeneracyError("unbalanced translation plan")
        pair = next(((u, d) for u in ups for d in downs if u[0] != d[0]), None)
        if pair is not None:
            (pu, cu), (pd, cd) = pair
        else:
            # every pending move sits on one pole: park one exponent of an
            # auxiliary pole one step down; the compensating up-move then
            # pairs across poles on a later iteration
            (pu, cu) = ups[0]
            pd = next(p for p in range(m) if p != pu)
            vset = set(values[pd])
            cd = next((c for c, v in enumerate(values[pd])
                       if v - 1 not in vset), None)
            if cd is None:
                raise DegeneracyError("no collision-free auxiliary slot")
        finite = _unit_move(finite, sys0.poles, sys0.nu, pu, values[pu][cu],
                            pd, values[pd][cd], rng)
        values[pu][cu] += 1
        values[pd][cd] -= 1
        left[pu][cu] -= 1
        left[pd][cd] += 1
        keys[pu], keys[pd] = _multiset(values[pu]), _multiset(values[pd])
        # guard the scaffolding states; the final tuple is additionally
        # held to the full tolerance after re-anchoring
        err = worst_drift(finite)
        if err > POLISH_TRIGGER:
            # near-degenerate passages amplify the witness error; re-anchor
            # the intermediate state on its exact eigenvalue data (a NaN
            # drift, from matrices that overflowed, has nothing to
            # re-anchor and fails the guard below)
            finite = _polish_residues(finite, values, sys0.nu)
            err = worst_drift(finite)
        if not err <= DRIFT_GUARD:
            raise DegeneracyError(f"intermediate orbit drift {err:.2e}")


def _polish_residues(finite, exact_values, nu):
    """Re-anchor a drifted residue tuple on the exact variety: warm-started
    Gauss-Newton over all conjugators with sum A_p = nu * Id, the exact
    per-pole eigenvalue lists as diagonals and the eigenvectors of the
    balanced tuple (balance_gauge) as starting point.  The fit's residual
    is measured on the scale of the exact eigenvalues, which a tuple that
    the moves left far from balanced (norm 1e4 and more) cannot reach.
    One fit, whose goal is also its acceptance test (POLISH_ACCEPT);
    returns the refined finite residues, or raises DegeneracyError naming
    the residual the fit ended at."""
    n = finite[0].shape[0]
    pq = balance_gauge(list(finite) + [closing_residue(finite, nu)])
    if pq is not None:
        finite = [pq[0] @ a @ pq[1] for a in finite]
    mats = list(finite) + [closing_residue(finite, nu)]
    gs, diags = [], []
    for a, values in zip(mats, exact_values):
        vals, vecs = np.linalg.eig(a)
        exact = np.array([_cx(v) for v in values])
        remaining = list(range(n))
        order = []
        for v in vals:
            k = min(remaining, key=lambda j: abs(exact[j] - v))
            order.append(k)
            remaining.remove(k)
        norms = np.linalg.norm(vecs, axis=0)
        gs.append(vecs / np.where(norms > 0, norms, 1.0))
        diags.append(np.diag(exact[order]))
    target = _cx(nu) * np.eye(n)
    _, out, res, goal = _tr_gauss_newton(gs, diags, target, POLISH_ACCEPT,
                                         max_iters=60)
    if not res <= goal:
        raise DegeneracyError(
            f"re-anchoring residual {res:.2e} above {goal:.2e}")
    return out[:-1]


def translate(sys: FuchsianSystem, mu) -> FuchsianSystem:
    """Translate by an integral level-zero weight vector: lam -> lam + mu,
    realised as a composition of elementary Schlesinger moves.

    The moves start from the balanced conjugate of the system (balance:
    the minimum of sum ||A_i||^2 over simultaneous conjugations), which
    keeps lam and every trace word but makes the witnesses well
    conditioned, so an orbit step does not depend on the gauge of its
    input.  The output residues are therefore a conjugate of those an
    unbalanced start would give (and, where that start drifted off the
    orbit, the correct ones).

    The ranked move plans (_plan_moves) are tried in turn.  Each plan's
    moves are chosen and run in one loop (_run_moves), paired in
    lexicographic slot order, under the drift guard (DRIFT_GUARD),
    re-anchoring any intermediate state that drifts past POLISH_TRIGGER,
    and the first plan that gets through wins.  Its final tuple is re-anchored on the exact orbit data (the
    matrices are floating-point witnesses of the exact bookkeeping) to
    POLISH_ACCEPT, which stops drift from accumulating along iterated
    orbits, and verified, semisimplicity included (minpoly_error).  A
    re-anchoring that ends above POLISH_ACCEPT fails its plan.  If every
    plan fails, the DegeneracyError names the number of plans run, the
    last plan's constants and the last error (for a failed re-anchoring,
    its residual)."""
    g = sys.graph
    mu = mu if isinstance(mu, ParamVector) else ParamVector(tuple(mu))
    if not weight_lattice_member(g, mu):
        raise ValueError("mu must be integral and level zero")
    sys0 = balance(normalize(sys))
    lam_new, plans = _plan_moves(sys0, mu)
    for shifts, consts in plans:
        try:
            finite, values = _run_moves(sys0, shifts)
            finite = _polish_residues(finite, values, sys0.nu)
            # the plan constants are the first eigenvalues: undo them at once
            finite = [a - _cx(c) * np.eye(sys0.n) for a, c in zip(finite, consts)]
            return make_system(g, sys0.poles, finite, lam_new, tol=sys0.tol)
        except DegeneracyError as exc:
            failure = exc
    raise DegeneracyError(
        f"translation failed for every move plan ({len(plans)} plans run; "
        f"last plan constants {consts}; last: {failure})")


def dp_orbit(sys: FuchsianSystem, mu, steps: int, sig_len: int = 3):
    """Iterate translate, emitting (k, lam_k, signature_k) rows; row 0 is
    the starting system.  Long orbits may pass close to walls where the
    matrix witnesses honestly lose accuracy, so the per-step orbit checks
    run at the ORBIT_TOL acceptance tolerance.  A DegeneracyError names the
    failing step k and the smallest |root pairing| of its target lam, ahead
    of translate's own message."""
    cur = replace(sys, tol=max(sys.tol, ORBIT_TOL))
    rows = [(0, cur.lam, signature(cur, sig_len))]
    for k in range(1, steps + 1):
        try:
            cur = translate(cur, mu)
        except DegeneracyError as exc:
            near = smallest_root_pairing(cur.graph, cur.lam + mu)
            raise DegeneracyError(
                f"orbit step {k} failed (target lam's smallest |root pairing| "
                f"{near:.3g}): {exc}") from exc
        rows.append((k, cur.lam, signature(cur, sig_len)))
    return rows


# ---------------------------------------------------------------------------
# composite words


def relabel_legs(sys: FuchsianSystem, perm) -> FuchsianSystem:
    """Permute equal-length finite legs (diagram automorphism, exposed as
    a parameter/residue permutation; experimental)."""
    g = sys.graph
    perm = tuple(perm)
    if sorted(perm) != list(range(g.num_legs)):
        raise ValueError("not a leg permutation")
    if perm[-1] != g.num_legs - 1:
        raise DegeneracyError("experimental: the infinity leg must stay fixed")
    for j, pj in enumerate(perm):
        if g.legs[j] != g.legs[pj]:
            raise ValueError("legs of different lengths cannot be relabelled")
    # the parameters of leg perm[j] move to leg j
    nodes = leg_node_permutation(g, zip(perm, range(g.num_legs)))
    finite = [sys.finite_residues[perm[j]] for j in range(sys.m - 1)]
    offsets = tuple(sys.offsets[perm[j]] for j in range(sys.m))
    return make_system(g, sys.poles, finite, permute_param(sys.lam, nodes),
                       offsets=offsets, tol=sys.tol)


def apply_word(sys: FuchsianSystem, tags) -> FuchsianSystem:
    """Apply the generator tags in order: ("leg", node), ("central",),
    ("tensor", c_1..c_{m-1}), ("relabel", leg permutation) and
    ("translate", mu)."""
    out = sys
    for tag in tags:
        kind = tag[0]
        if kind == "leg":
            out = leg_reflection(out, int(tag[1]))
        elif kind == "central":
            out = central_reflection(out)
        elif kind == "tensor":
            out = tensor_shift(out, tag[1])
        elif kind == "relabel":
            out = relabel_legs(out, tag[1])
        elif kind == "translate":
            out = translate(out, tag[1])
        else:
            raise ValueError(f"unknown word tag {kind!r}")
    return out
