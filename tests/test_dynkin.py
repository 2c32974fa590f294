import random
from fractions import Fraction as F

import pytest

from starweyl.dynkin import (
    AFFINE_TYPES,
    COXETER_NUMBER,
    WEYL_ORDER,
    AffineWeylElement,
    ParamVector,
    RootVector,
    StarGraph,
    apply_affine,
    cartan_matrix,
    coxeter_exponent,
    enumerate_roots,
    hyperplane_count,
    is_regular,
    lattice_index,
    leg_permutations,
    positive_roots,
    permute_param,
    reflect_param,
    reflect_root,
    root_form,
    root_norm,
    root_pairing,
    weight_lattice_basis,
    weight_lattice_member,
    weyl_orbit,
)
from starweyl.ratlin import GaussianRational

# marks of the extended Dynkin diagrams (McKay graph dimensions):
# centre first, then the legs in canonical order, outward
DIAGRAM_MARKS = {
    "D4": (2, 1, 1, 1, 1),
    "E6": (3, 2, 1, 2, 1, 2, 1),
    "E7": (4, 2, 3, 2, 1, 3, 2, 1),
    "E8": (6, 3, 4, 2, 5, 4, 3, 2, 1),
}

ROOT_COUNTS = {"D4": 24, "E6": 72, "E7": 126, "E8": 240}


def rand_level_zero(g, rng):
    delta = g.delta
    vals = [F(rng.randint(-9, 9), rng.randint(1, 7)) for _ in range(g.node_count)]
    rest = sum(d * v for k, (d, v) in enumerate(zip(delta.coords, vals)) if k != 0)
    vals[0] = F(-rest, delta[0])
    return ParamVector(tuple(vals))


@pytest.mark.parametrize("name", AFFINE_TYPES)
def test_cartan_matrix_structure(name):
    g = StarGraph.affine(name)
    c = cartan_matrix(g)
    n = g.node_count
    for i in range(n):
        assert c[i, i] == 2
        for j in range(n):
            assert c[i, j] == c[j, i]
            if i != j:
                assert c[i, j] == (-1 if j in g.neighbors[i] else 0)
    assert c.det == 0


def test_d4_center_row():
    g = StarGraph.affine("D4")
    assert g.cartan.row(0) == (2, -1, -1, -1, -1)


@pytest.mark.parametrize("name", AFFINE_TYPES)
def test_delta_matches_diagram_marks(name):
    g = StarGraph.affine(name)
    assert g.delta.coords == DIAGRAM_MARKS[name]
    # delta spans ker C: C delta = 0 exactly
    c = g.cartan
    for i in range(g.node_count):
        assert sum(c[i, j] * g.delta[j] for j in range(g.node_count)) == 0


@pytest.mark.parametrize("name", AFFINE_TYPES)
def test_reflections_fix_delta_and_are_involutions(name):
    g = StarGraph.affine(name)
    rng = random.Random(7)
    for i in range(g.node_count):
        assert reflect_root(g, i, g.delta) == g.delta
        ei = RootVector(tuple(1 if k == i else 0 for k in range(g.node_count)))
        assert reflect_root(g, i, ei) == -ei
        for _ in range(5):
            beta = RootVector(tuple(rng.randint(-4, 4)
                                    for _ in range(g.node_count)))
            assert reflect_root(g, i, reflect_root(g, i, beta)) == beta
            assert root_form(g, beta, beta) == root_form(
                g, reflect_root(g, i, beta), reflect_root(g, i, beta))


@pytest.mark.parametrize("name", AFFINE_TYPES)
def test_pairing_invariance(name):
    # s_i(beta) . r_i(lam) == beta . lam, quantified over random exact data
    g = StarGraph.affine(name)
    rng = random.Random(11)
    for _ in range(20):
        lam = rand_level_zero(g, rng)
        i = rng.randrange(g.node_count)
        rlam = reflect_param(g, i, lam)
        assert rlam.is_level_zero(g.delta)
        for _ in range(5):
            beta = RootVector(tuple(rng.randint(-6, 6)
                                    for _ in range(g.node_count)))
            assert reflect_root(g, i, beta).dot(rlam.values) == beta.dot(lam.values)


def test_reflect_param_fixed_when_component_vanishes():
    g = StarGraph.affine("E6")
    lam = rand_level_zero(g, random.Random(3)).replace(2, F(0))
    assert reflect_param(g, 2, lam).values == lam.values


def test_d4_center_reflection_theta_formula():
    # theta_k -> theta_k - nu with nu = sum(theta)/2, via the exact lam track
    g = StarGraph.affine("D4")
    rng = random.Random(5)
    lam = rand_level_zero(g, rng)
    legs = [g.leg_nodes(j)[0] for j in range(4)]
    thetas = [-lam[k] for k in legs]
    nu = sum(thetas) / 2
    assert nu == lam[0]
    out = reflect_param(g, 0, lam)
    assert [-out[k] for k in legs] == [t - nu for t in thetas]


@pytest.mark.parametrize("name", AFFINE_TYPES)
def test_root_enumeration_counts_and_norms(name):
    g = StarGraph.affine(name)
    roots = enumerate_roots(g)
    assert len(roots) == ROOT_COUNTS[name]
    r = len(g.finite_nodes)
    assert len(roots) == r * COXETER_NUMBER[name]
    assert hyperplane_count(g) == len(roots) // 2
    for root in roots:
        assert root_norm(g, root) == 2
    # closed under negation
    coords = {root.coords for root in roots}
    assert all(tuple(-x for x in c) in coords for c in coords)
    # the positive roots come first, one of each pair r, -r
    pos = positive_roots(g)
    assert len(pos) == hyperplane_count(g)
    assert all(min(root.coords) >= 0 for root in pos)
    assert {(-root).coords for root in pos} == \
        {root.coords for root in roots[len(pos):]}


def test_param_vector_is_exact_by_construction():
    gq = GaussianRational(F(1, 2), F(-1, 3))
    lam = ParamVector((1, F(2, 3), gq))
    assert lam.values == (F(1), F(2, 3), gq)
    assert type(lam[0]) is F and lam.field == "Qi"
    assert ParamVector((1, F(-1, 2))).field == "Q"
    for bad in (0.5, 1j, "1/2", None):
        with pytest.raises(TypeError):
            ParamVector((F(1), bad))


def test_is_regular_examples():
    g = StarGraph.affine("D4")
    zero = ParamVector((F(0),) * 5)
    flag, violated = is_regular(g, zero)
    assert not flag and len(violated) == 24
    # generic theta = (1/2, 1/3, 1/5, 1/7)
    thetas = [F(1, 2), F(1, 3), F(1, 5), F(1, 7)]
    lam = ParamVector((sum(thetas) / 2, -thetas[0], -thetas[1], -thetas[2],
                       -thetas[3]))
    flag, violated = is_regular(g, lam)
    assert flag and not violated
    # a vanishing leg component violates alpha_i (rebuild level zero)
    vals = list(lam.values)
    vals[1] = F(0)
    vals[0] = -(sum(d * v for d, v in zip(g.delta.coords[1:], vals[1:]))) / 2
    lam2 = ParamVector(tuple(vals))
    flag, violated = is_regular(g, lam2)
    simple = tuple(1 if k == 1 else 0 for k in range(4))
    assert not flag
    assert any(r.coords == simple for r in violated)


@pytest.mark.parametrize("name", AFFINE_TYPES)
def test_coxeter_relations_exact(name):
    g = StarGraph.affine(name)
    rng = random.Random(13)
    lam = rand_level_zero(g, rng)
    for i in range(g.node_count):
        for j in range(i + 1, g.node_count):
            m = coxeter_exponent(g, i, j)
            assert m == (3 if j in g.neighbors[i] else 2)
            out = lam
            for _ in range(m):
                out = reflect_param(g, j, reflect_param(g, i, out))
            assert out.values == lam.values


def test_d4_weyl_group_order_by_orbit():
    g = StarGraph.affine("D4")
    thetas = [F(1, 2), F(1, 3), F(1, 5), F(1, 7)]
    lam = ParamVector((sum(thetas) / 2, -thetas[0], -thetas[1], -thetas[2],
                       -thetas[3]))
    assert is_regular(g, lam)[0]
    orbit = weyl_orbit(g, lam, nodes=g.finite_nodes)
    assert len(orbit) == WEYL_ORDER["D4"] == 192


@pytest.mark.parametrize("name", ("E6", "E7", "E8"))
def test_root_orbit_size_divides_weyl_order(name):
    g = StarGraph.affine(name)
    alpha1 = ParamVector(tuple(F(x) for x in g.cartan.row(1)))
    orbit = weyl_orbit(g, alpha1, nodes=g.finite_nodes)
    assert len(orbit) == ROOT_COUNTS[name]
    assert WEYL_ORDER[name] % len(orbit) == 0


@pytest.mark.parametrize("name,index", [("D4", 4), ("E6", 3), ("E7", 2), ("E8", 1)])
def test_weight_to_root_lattice_index(name, index):
    assert lattice_index(name) == index


def test_weight_lattice_membership_and_affine_action():
    g = StarGraph.affine("E7")
    rng = random.Random(19)
    lam = rand_level_zero(g, rng)
    # alpha_1 (a Cartan row) is in the root lattice, hence in P(R)
    assert weight_lattice_member(g, tuple(g.cartan.row(1)))
    assert not weight_lattice_member(g, (F(1, 2),) + (F(0),) * (g.node_count - 1))
    ident = AffineWeylElement.identity(g)
    assert apply_affine(g, ident, lam).values == lam.values
    for mu in weight_lattice_basis(g):
        assert weight_lattice_member(g, tuple(mu.coords))
        elt = AffineWeylElement((), tuple(mu.coords))
        moved = apply_affine(g, elt, lam)
        assert moved.values == (lam + tuple(F(x) for x in mu.coords)).values
    word = AffineWeylElement((0, 1, 0), (0,) * g.node_count)
    expected = reflect_param(g, 0, reflect_param(g, 1, reflect_param(g, 0, lam)))
    assert apply_affine(g, word, lam).values == expected.values


def test_leg_permutations_experimental():
    g = StarGraph.affine("D4")
    perms = leg_permutations(g)
    assert len(perms) == 24  # Sym(4) on the four equal legs
    lam = rand_level_zero(g, random.Random(23))
    for perm in perms[:6]:
        out = permute_param(lam, perm)
        assert sorted(out.values) == sorted(lam.values)
        assert out.is_level_zero(g.delta)


def test_general_star_graph_interop():
    g = StarGraph((2, 3, 5))
    assert g.node_count == 11
    assert g.legs == (2, 3, 5)
    with pytest.raises(ValueError):
        g.delta  # not an affine type: ker C is not a line
