"""Acceptance suite: one test per criterion, each printing a pass line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
report.  Tolerances are pinned here and nowhere else.
"""

import itertools
import random
import time
from fractions import Fraction as F

import numpy as np
import pytest

from starweyl import ratlin
from starweyl.dynkin import (
    AFFINE_TYPES,
    ParamVector,
    StarGraph,
    coxeter_exponent,
    enumerate_roots,
    hyperplane_count,
    reflect_param,
)
from starweyl.fuchsian import sample_system, signature
from starweyl.quiver import (
    AlmostAffineQuiver,
    DimensionVector,
    IncrementedQuiver,
    dim_w,
    expected_dim,
    leg_chain_rep,
    leg_top_composite,
    moment_map,
    orbit_dimension,
    permute_params,
    project_params,
)
from starweyl.sakai import (
    PicardLattice,
    PointConfig,
    act_simple,
    chi,
    dynkin_graph,
    lam_from_config,
    reflect_pic,
    sakai_orbit,
    sakai_to_dynkin_nodes,
    wall_check,
)
from starweyl.weylops import (
    central_reflection,
    dp_orbit,
    light_translation_basis,
    translate,
)


def report(num, message):
    print(f"\n[acceptance] criterion {num}: PASS - {message}")


# -- criterion 1: root and hyperplane counts --------------------------------


def _reduce_functional(g, vec):
    """Functional over all nodes -> finite coordinates on the level-zero
    space (eliminate the extending component)."""
    ext = vec[g.extending]
    return tuple(vec[i] - ext * g.delta[i] for i in g.finite_nodes)


def _eigenvalue_functionals(g):
    """Per pole, the det-zero eigenvalues as integer functionals of lam
    (full node coordinates) with their multiplicities."""
    delta = g.delta
    out = []
    for j in range(g.num_legs):
        nodes = g.leg_nodes(j)
        dims = [delta[g.center]] + [delta[k] for k in nodes] + [0]
        acc = [0] * g.node_count
        vals = []
        for pos in range(len(dims) - 1):
            mult = dims[pos] - dims[pos + 1]
            if mult > 0:
                vals.append((tuple(acc), mult))
            if pos < len(nodes):
                acc = list(acc)
                acc[nodes[pos]] -= 1
        out.append(vals)
    return out


def _vec_add(*vecs):
    return tuple(sum(x) for x in zip(*vecs))


def _vec_scale(c, v):
    return tuple(c * x for x in v)


def _vec_neg(v):
    return tuple(-x for x in v)


def test_criterion_1_root_counts():
    t0 = time.time()
    counts = {}
    for name, want in (("D4", 24), ("E6", 72), ("E7", 126), ("E8", 240)):
        roots = enumerate_roots(StarGraph.affine(name))
        counts[name] = len(roots)
        assert len(roots) == want

    # E8 decomposition: 202 block-triangular relations + 38 coincidences
    g = StarGraph.affine("E8")
    eigs = _eigenvalue_functionals(g)
    values = [[v for v, _ in pole] for pole in eigs]
    x, y, z = values  # 2, 3 and 6 distinct eigenvalues
    assert (len(x), len(y), len(z)) == (2, 3, 6)
    nu = tuple(1 if i == g.center else 0 for i in range(g.node_count))

    def block(parts, r):
        return _reduce_functional(g, _vec_add(*parts, _vec_scale(-r, nu)))

    relations = set()
    # rank 1: one eigenvalue from each orbit (2 x 3 x 6 = 36), with signs
    for a, b, c in itertools.product(x, y, z):
        f = block([a, b, c], 1)
        relations.add(f)
        relations.add(_vec_neg(f))
    count_r1 = len(relations)
    # rank 2: both values of the first orbit, distinct pairs elsewhere
    # (1 x 3 x 15 = 45), with signs
    for b2 in itertools.combinations(y, 2):
        for c2 in itertools.combinations(z, 2):
            f = block([x[0], x[1], *b2, *c2], 2)
            relations.add(f)
            relations.add(_vec_neg(f))
    count_r12 = len(relations)
    # rank 3: a mixed triple (a,a,b) or (a,b,b) from the first orbit, all
    # three values of the second, distinct triples of the third
    # (2 x 1 x 20 = 40); the family is closed under negation
    for triple in ((x[0], x[0], x[1]), (x[0], x[1], x[1])):
        for c3 in itertools.combinations(z, 3):
            relations.add(block([*triple, *y, *c3], 3))
    block_relations = set(relations)
    assert count_r1 == 2 * 36
    assert count_r12 - count_r1 == 2 * 45
    assert len(block_relations) - count_r12 == 40
    assert len(block_relations) == 202

    coincidences = set()
    for pole in values:
        for a, b in itertools.combinations(pole, 2):
            f = _reduce_functional(g, _vec_add(a, _vec_neg(b)))
            coincidences.add(f)
            coincidences.add(_vec_neg(f))
    assert len(coincidences) == 38
    assert not (block_relations & coincidences)

    root_functionals = {r.coords for r in enumerate_roots(g)}
    assert block_relations | coincidences == root_functionals
    assert hyperplane_count(g) == 120
    assert len(block_relations) // 2 == 101
    assert len(coincidences) // 2 == 19
    elapsed = time.time() - t0
    assert elapsed < 1.0
    report(1, f"roots {counts}, E8 = 202 block + 38 coincidence relations, "
              f"120 hyperplanes ({elapsed:.2f}s)")


def test_criterion_2_dimensions():
    t0 = time.time()
    want_w = {"D4": 16, "E6": 48, "E7": 96, "E8": 240}
    for name, w in want_w.items():
        g = StarGraph.affine(name)
        assert dim_w(g, DimensionVector.delta(g)) == w
    moduli = {
        "D4": [orbit_dimension(2, (1, 1))] * 4,
        "E6": [orbit_dimension(3, (1, 1, 1))] * 3,
        "E7": [orbit_dimension(4, (2, 2))] + [orbit_dimension(4, (1,) * 4)] * 2,
        "E8": [orbit_dimension(6, (3, 3)), orbit_dimension(6, (2, 2, 2)),
               orbit_dimension(6, (1,) * 6)],
    }
    for name, dims in moduli.items():
        n = {"D4": 2, "E6": 3, "E7": 4, "E8": 6}[name]
        assert expected_dim(dims, n) == 2
    assert sum(moduli["E8"]) == 72 and expected_dim(moduli["E8"], 6) == 72 - 2 * 35
    elapsed = time.time() - t0
    assert elapsed < 1.0
    report(2, f"dim W = {want_w}, expected moduli dimension 2 for all types "
              f"(E8: 72 - 2x35 = 2) ({elapsed:.2f}s)")


def test_criterion_3_leg_moment_oracle():
    rng = random.Random(123)
    for trial in range(100):
        l3, l2, l1 = (F(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(3))
        rep = leg_chain_rep((4, 3, 2, 1), (l3, l2, l1), seed=trial)
        mu = moment_map(rep)
        top = leg_top_composite(rep)
        assert mu[rep.graph.center] == top
        cp = ratlin.charpoly(top)
        want = ratlin.poly_from_roots([
            (F(0), 1), (-l3, 1), (-l3 - l2, 1), (-l3 - l2 - l1, 1)])
        assert cp == want
    report(3, "100 random rational legs: eigenvalues of the centre composite "
              "are (0, -l3, -l3-l2, -l3-l2-l1), exact")


def test_criterion_4_appendix_lemma():
    t0 = time.time()
    rng = random.Random(321)
    for name in AFFINE_TYPES:
        inc = IncrementedQuiver(AlmostAffineQuiver.affine(name))
        g_plus, dims = inc.graph, inc.dims
        base = inc.base.graph
        for _ in range(1000):
            vals = [F(rng.randint(-9, 9), rng.randint(1, 7))
                    for _ in range(g_plus.node_count)]
            rest = sum(d * v for k, (d, v) in
                       enumerate(zip(dims.coords, vals)) if k != g_plus.center)
            vals[g_plus.center] = F(-rest, dims[g_plus.center])
            lam = ParamVector(tuple(vals))
            assert lam.level(inc.dims) == 0
            lhs = reflect_param(base, base.center, project_params(inc, lam))
            rhs = project_params(inc, permute_params(inc, lam))
            assert lhs.values == rhs.values
    elapsed = time.time() - t0
    assert elapsed < 5.0
    report(4, f"r_1(pr(lam)) == pr(per(lam)) exactly, 1000 random lam per "
              f"type ({elapsed:.2f}s)")


def test_criterion_5_central_reflection_matrix_track():
    worst_err = 0.0
    worst_sig = 0.0
    worst_e8 = 0.0
    for name in AFFINE_TYPES:
        for seed in range(100):
            t0 = time.time()
            sysm, lam = sample_system(name, seed=seed)
            out = central_reflection(sysm)
            g = sysm.graph
            assert out.lam.values == reflect_param(g, g.center, lam).values
            err = out.verify()
            assert err < 1e-8
            again = central_reflection(out)
            dist = signature(again, 4).distance(signature(sysm, 4))
            assert dist < 1e-6
            worst_err = max(worst_err, err)
            worst_sig = max(worst_sig, dist)
            if name == "E8":
                run = time.time() - t0
                assert run < 1.0
                worst_e8 = max(worst_e8, run)
    report(5, f"100 samples x 4 types: orbit error <= {worst_err:.1e} "
              f"(tol 1e-8), double-application signature <= {worst_sig:.1e} "
              f"(tol 1e-6), slowest E8 run {worst_e8 * 1000:.0f}ms (< 1s)")


def test_criterion_6_pvi_theta_reflection():
    for seed in range(25):
        sysm, lam = sample_system("D4", seed=seed)
        g = sysm.graph
        legs = [g.leg_nodes(j)[0] for j in range(4)]
        thetas = [-lam[k] for k in legs]
        nu = sum(thetas) / 2
        assert nu == lam[g.center]
        out = central_reflection(sysm)
        assert [-out.lam[k] for k in legs] == [t - nu for t in thetas]
    report(6, "central reflection sends theta -> theta - nu with "
              "nu = sum(theta)/2, exact on the parameter track (25 seeds)")


def test_criterion_7_schlesinger_translations():
    worst_err = 0.0
    worst_sig = 0.0
    for name in AFFINE_TYPES:
        sysm, lam = sample_system(name, seed=17)
        basis = light_translation_basis(sysm.graph)
        assert len(basis) == len(sysm.graph.finite_nodes)
        for mu in basis[:5]:
            out = translate(sysm, mu)
            assert out.lam.values == (lam + mu).values
            err = out.verify()
            assert err < 1e-8
            back = translate(out, mu.scale(-1))
            dist = signature(back, 4).distance(signature(sysm, 4))
            assert dist < 1e-8
            worst_err = max(worst_err, err)
            worst_sig = max(worst_sig, dist)
    report(7, f"translate by 5 weight-basis vectors per type: lam' = lam + mu "
              f"exact, orbit membership <= {worst_err:.1e} (tol 1e-8), "
              f"step-inverse signature <= {worst_sig:.1e} (tol 1e-8)")


def test_criterion_8_coxeter_relations():
    rng = random.Random(55)
    for name in AFFINE_TYPES:
        g = StarGraph.affine(name)
        delta = g.delta
        vals = [F(rng.randint(-9, 9), rng.randint(1, 7))
                for _ in range(g.node_count)]
        rest = sum(d * v for k, (d, v) in enumerate(zip(delta.coords, vals))
                   if k != 0)
        vals[0] = F(-rest, delta[0])
        lam = ParamVector(tuple(vals))
        for i in range(g.node_count):
            for j in range(i + 1, g.node_count):
                m = coxeter_exponent(g, i, j)
                out = lam
                for _ in range(m):
                    out = reflect_param(g, j, reflect_param(g, i, out))
                assert out.values == lam.values
    report(8, "(r_i r_j)^m_ij = id exactly on lam for every generator pair, "
              "all four affine types")


def test_criterion_9_sakai_cross_checks():
    rng = random.Random(77)
    for r in (6, 7, 8, 9):
        lat = PicardLattice(r)
        g = dynkin_graph(r)
        sigma = sakai_to_dynkin_nodes(r)
        for _ in range(100):
            p = PointConfig(tuple(F(rng.randint(-40, 40), rng.randint(1, 13))
                                  for _ in range(r)))
            lam = lam_from_config(p)
            k = rng.randrange(r)
            q = act_simple(p, k)
            alpha = lat.simple_roots[k]
            for line in lat.simple_roots:
                assert chi(q, line) == chi(p, reflect_pic(lat, line, alpha))
            assert lam_from_config(q).values == reflect_param(
                g, sigma[k], lam).values
    report(9, "cremona/swap actions are chi-equivariant and match the "
              "star-diagram reflections exactly (100 configs per r in 6..9)")


def test_criterion_10_orbit_emission():
    t0 = time.time()
    # difference-Painleve orbits: verified clean trajectories per type
    for name, seed, bi in (("D4", 23, 0), ("E6", 23, 3),
                           ("E7", 23, 0), ("E8", 11, 0)):
        sysm, lam = sample_system(name, seed=seed)
        mu = light_translation_basis(sysm.graph)[bi]
        rows = dp_orbit(sysm, mu, 50)
        assert len(rows) == 51
        for k, lam_k, _ in rows:
            assert lam_k.values == (lam + mu.scale(k)).values
        sigs = [row[2] for row in rows]
        moved = sum(1 for k in range(50)
                    if sigs[k].distance(sigs[k + 1]) > 1e-6)
        assert moved == 50

    # point-configuration orbit, exact affine march with wall flags
    rng = random.Random(99)
    p = PointConfig(tuple(F(rng.randint(-20, 20), rng.randint(2, 9))
                          for _ in range(9)))
    mu = (1, 0, -1, 2, 0, 0, 1, 0)
    rows = sakai_orbit(p, mu, 50)
    step = tuple(b - a for a, b in zip(rows[0][1].values, rows[1][1].values))
    assert any(x != 0 for x in step)
    for k in range(51):
        want = tuple(u + k * d for u, d in zip(p.values, step))
        assert rows[k][1].values == want
        assert rows[k][2] == wall_check(rows[k][1])
    elapsed = time.time() - t0
    assert elapsed < 30.0
    report(10, f"50-step dp orbits (all four types) and a 50-step "
               f"configuration orbit: exact arithmetic progressions, "
               f"nonconstant signatures ({elapsed:.1f}s < 30s)")
