import itertools
import random
from fractions import Fraction as F

import numpy as np
import pytest

from starweyl import ratlin
from starweyl.dynkin import AFFINE_TYPES, ParamVector, StarGraph, reflect_param
from starweyl.quiver import (
    AlmostAffineQuiver,
    DimensionVector,
    IncrementedQuiver,
    QuiverRep,
    dim_w,
    embed_params,
    expected_dim,
    leg_chain_rep,
    moment_map,
    orbit_dimension,
    permute_params,
    project_params,
    shift_params,
)

DIM_W = {"D4": 16, "E6": 48, "E7": 96, "E8": 240}
BINARY_ORDERS = {"D4": 8, "E6": 24, "E7": 48, "E8": 120}


def moment_trace_sum(mu):
    return sum((ratlin.trace(m) for m in mu.values()), F(0))


def rand_level_zero_plus(inc, rng):
    g, d = inc.graph, inc.dims
    vals = [F(rng.randint(-9, 9), rng.randint(1, 7)) for _ in range(g.node_count)]
    rest = sum(dd * v for k, (dd, v) in enumerate(zip(d.coords, vals))
               if k != g.center)
    vals[g.center] = F(-rest, d[g.center])
    lam = ParamVector(tuple(vals))
    assert lam.level(inc.dims) == 0
    return lam


@pytest.mark.parametrize("name", AFFINE_TYPES)
def test_dim_w_is_twice_binary_group_order(name):
    g = StarGraph.affine(name)
    got = dim_w(g, DimensionVector.delta(g))
    assert got == DIM_W[name] == 2 * BINARY_ORDERS[name]


def test_expected_dimension_two_for_all_types():
    assert expected_dim([orbit_dimension(2, (1, 1))] * 4, 2) == 2
    assert expected_dim([orbit_dimension(3, (1, 1, 1))] * 3, 3) == 2
    assert expected_dim([orbit_dimension(4, (2, 2)),
                         orbit_dimension(4, (1, 1, 1, 1)),
                         orbit_dimension(4, (1, 1, 1, 1))], 4) == 2
    # 72 - 2 x 35 = 2
    dims = [orbit_dimension(6, (3, 3)), orbit_dimension(6, (2, 2, 2)),
            orbit_dimension(6, (1,) * 6)]
    assert sum(dims) == 72
    assert expected_dim(dims, 6) == 72 - 2 * 35 == 2


def _exact_rep(g, dims, entry):
    """A representation whose matrix entries come from entry()."""
    def block(rows, cols):
        return ratlin.mat([[entry() for _ in range(cols)] for _ in range(rows)])
    phi = {e: block(dims[e[1]], dims[e[0]]) for e in g.edges}
    psi = {e: block(dims[e[0]], dims[e[1]]) for e in g.edges}
    return QuiverRep(g, dims, phi, psi)


def test_moment_map_zero_rep():
    g = StarGraph.affine("D4")
    dims = DimensionVector.delta(g)
    mu = moment_map(_exact_rep(g, dims, lambda: F(0)))
    assert all(m == ratlin.zeros(dims[i]) for i, m in mu.items())


def test_moment_map_trace_sum_random_exact_rep():
    rng = random.Random(2)
    for name, gaussian in itertools.product(AFFINE_TYPES, (False, True)):
        g = StarGraph.affine(name)
        dims = DimensionVector.delta(g)

        def entry():
            x = F(rng.randint(-9, 9), rng.randint(1, 5))
            return ratlin.GaussianRational(x, rng.randint(-3, 3)) if gaussian else x
        mu = moment_map(_exact_rep(g, dims, entry))
        assert any(m != ratlin.zeros(dims[i]) for i, m in mu.items())
        assert moment_trace_sum(mu) == 0


def test_moment_map_shape_mismatch():
    g = StarGraph.affine("D4")
    dims = DimensionVector.delta(g)
    rep = _exact_rep(g, dims, lambda: F(0))
    phi = {**rep.phi, g.edges[0]: ratlin.zeros(3)}
    with pytest.raises(ValueError):
        QuiverRep(g, dims, phi, rep.phi_star)


def test_quiver_rep_rejects_non_exact_matrices():
    g = StarGraph.affine("D4")
    dims = DimensionVector.delta(g)
    rep = _exact_rep(g, dims, lambda: F(1, 2))
    e = g.edges[0]
    for bad in (np.array(rep.phi[e], dtype=float),
                np.array(rep.phi[e], dtype=object),
                tuple(tuple(float(x) for x in row) for row in rep.phi[e]),
                [list(row) for row in rep.phi[e]]):
        with pytest.raises(TypeError):
            QuiverRep(g, dims, {**rep.phi, e: bad}, rep.phi_star)
        with pytest.raises(TypeError):
            QuiverRep(g, dims, rep.phi, {**rep.phi_star, e: bad})


def test_leg_chain_exact_eigenvalues():
    lam3, lam2, lam1 = F(1, 3), F(2, 5), F(-3, 7)
    rep = leg_chain_rep((4, 3, 2, 1), (lam3, lam2, lam1), seed=4)
    mu = moment_map(rep)
    assert moment_trace_sum(mu) == 0
    # the moment value at each leg node is the prescribed scalar
    g = rep.graph
    for node, want in zip(g.leg_nodes(0), (lam3, lam2, lam1)):
        d = rep.dims[node]
        assert mu[node] == ratlin.mscale(want, ratlin.identity(d))
    # the centre composite has the partial-sum spectrum
    cp = ratlin.charpoly(mu[g.center])
    expected = ratlin.poly_from_roots([
        (F(0), 1), (-lam3, 1), (-lam3 - lam2, 1), (-lam3 - lam2 - lam1, 1)])
    assert cp == expected


@pytest.mark.parametrize("name", AFFINE_TYPES)
def test_affine_delta_quivers_are_almost_affine(name):
    g = StarGraph.affine(name)
    AlmostAffineQuiver(g, DimensionVector.delta(g))  # raises unless almost affine
    q = AlmostAffineQuiver.affine(name)
    assert q.big_n == g.delta[g.center] + 1


def test_increment_figures():
    # centre and per-leg dimensions of the incremented quivers
    expected = {
        "D4": (3, [[1], [1], [1], [2, 1]]),
        "E6": (4, [[2, 1], [2, 1], [3, 2, 1]]),
        "E7": (5, [[2], [3, 2, 1], [4, 3, 2, 1]]),
        "E8": (7, [[3], [4, 2], [6, 5, 4, 3, 2, 1]]),
    }
    for name, (center, legdims) in expected.items():
        inc = IncrementedQuiver(AlmostAffineQuiver.affine(name))
        g, d = inc.graph, inc.dims
        assert d[g.center] == center
        got = [[d[k] for k in g.leg_nodes(j)] for j in range(g.num_legs)]
        assert got == legdims
        # the incremented quiver has a full last leg and block sizes
        # summing to N
        assert got[-1] == list(range(center - 1, 0, -1))
        assert sum(inc.block_sizes) == inc.big_n


@pytest.mark.parametrize("name", AFFINE_TYPES)
def test_shift_params_level_and_identity(name):
    inc = IncrementedQuiver(AlmostAffineQuiver.affine(name))
    rng = random.Random(29)
    lam = rand_level_zero_plus(inc, rng)
    assert shift_params(inc, lam, F(0)).values == lam.values
    for _ in range(10):
        shift = F(rng.randint(-9, 9), rng.randint(1, 9))
        assert shift_params(inc, lam, shift).level(inc.dims) == 0


def test_shift_params_touches_only_adjacent_nodes():
    # E7+: centre gains Lambda, the two non-full adjacent nodes lose it
    inc = IncrementedQuiver(AlmostAffineQuiver.affine("E7"))
    g = inc.graph
    lam = rand_level_zero_plus(inc, random.Random(31))
    shift = F(5, 3)
    out = shift_params(inc, lam, shift)
    changed = {k for k in range(g.node_count) if out[k] != lam[k]}
    assert changed == {g.center} | set(inc.adjacent_nodes)
    assert out[g.center] == lam[g.center] + shift
    for k in inc.adjacent_nodes:
        assert out[k] == lam[k] - shift


@pytest.mark.parametrize("name", AFFINE_TYPES)
def test_projection_section_and_pure_restriction(name):
    inc = IncrementedQuiver(AlmostAffineQuiver.affine(name))
    rng = random.Random(37)
    base = inc.base.graph
    vals = [F(rng.randint(-9, 9), rng.randint(1, 7))
            for _ in range(base.node_count)]
    rest = sum(d * v for k, (d, v) in enumerate(zip(base.delta.coords, vals))
               if k != base.center)
    vals[base.center] = F(-rest, base.delta[base.center])
    lam = ParamVector(tuple(vals))
    lam_plus = embed_params(inc, lam)
    assert lam_plus.level(inc.dims) == 0
    # with a zero centre, pr is pure restriction
    assert project_params(inc, lam_plus).values == lam.values


@pytest.mark.parametrize("name", AFFINE_TYPES)
def test_per_involution_and_level(name):
    inc = IncrementedQuiver(AlmostAffineQuiver.affine(name))
    rng = random.Random(41)
    for _ in range(25):
        lam = rand_level_zero_plus(inc, rng)
        per = permute_params(inc, lam)
        assert per.level(inc.dims) == 0
        assert permute_params(inc, per).values == lam.values
    # lam_2 = 0 (top of the full leg) is a fixed point
    lam = rand_level_zero_plus(inc, rng)
    full_top = inc.graph.leg_nodes(inc.full_leg)[0]
    vals = list(lam.values)
    c = inc.graph.center
    vals[c] = vals[c] + vals[full_top] * F(inc.dims[full_top], inc.dims[c])
    vals[full_top] = F(0)
    rest = sum(d * v for k, (d, v) in enumerate(zip(inc.dims.coords, vals))
               if k != c)
    vals[c] = F(-rest, inc.dims[c])
    lam0 = ParamVector(tuple(vals))
    assert permute_params(inc, lam0).values == lam0.values


@pytest.mark.parametrize("name", AFFINE_TYPES)
def test_appendix_identity_r1_pr_equals_pr_per(name):
    inc = IncrementedQuiver(AlmostAffineQuiver.affine(name))
    base = inc.base.graph
    rng = random.Random(43)
    for _ in range(100):
        lam = rand_level_zero_plus(inc, rng)
        lhs = reflect_param(base, base.center, project_params(inc, lam))
        rhs = project_params(inc, permute_params(inc, lam))
        assert lhs.values == rhs.values
