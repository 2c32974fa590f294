import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from starweyl.dynkin import (
    AFFINE_TYPES,
    COXETER_NUMBER,
    WEYL_ORDER,
    AffineWeylElement,
    ParamVector,
    RootVector,
    StarGraph,
    apply_affine,
    coxeter_exponent,
    enumerate_roots,
    hyperplane_count,
    is_regular,
    lattice_index,
    positive_roots,
    reflect_param,
    reflect_root,
    root_pairing,
    root_pairings,
    smallest_root_pairing,
    weight_lattice_basis,
    weight_lattice_member,
    weyl_orbit,
)
from starweyl.fuchsian import random_regular_lam
from starweyl.ratlin import GaussianRational, det, format_rational, mat, to_complex

# marks of the extended Dynkin diagrams (McKay graph dimensions):
# centre first, then the legs in canonical order, outward
DIAGRAM_MARKS = {
    "D4": (2, 1, 1, 1, 1),
    "E6": (3, 2, 1, 2, 1, 2, 1),
    "E7": (4, 2, 3, 2, 1, 3, 2, 1),
    "E8": (6, 3, 4, 2, 5, 4, 3, 2, 1),
}

ROOT_COUNTS = {"D4": 24, "E6": 72, "E7": 126, "E8": 240}


def root_form(g, beta, gamma):
    """(beta, gamma) = beta^T C gamma."""
    c = g.cartan
    return sum(beta[i] * c[i][j] * gamma[j]
               for i in range(g.node_count) for j in range(g.node_count))


def rand_level_zero(g, rng):
    delta = g.delta
    vals = [F(rng.randint(-9, 9), rng.randint(1, 7)) for _ in range(g.node_count)]
    rest = sum(d * v for k, (d, v) in enumerate(zip(delta.coords, vals)) if k != 0)
    vals[0] = F(-rest, delta[0])
    return ParamVector(tuple(vals))


@pytest.mark.parametrize("name", AFFINE_TYPES)
def test_cartan_matrix_structure(name):
    g = StarGraph.affine(name)
    c = g.cartan
    n = g.node_count
    for i in range(n):
        assert c[i][i] == 2
        for j in range(n):
            assert c[i][j] == c[j][i]
            if i != j:
                assert c[i][j] == (-1 if j in g.neighbors[i] else 0)
    assert det(mat([[F(x) for x in row] for row in c])) == 0


def test_d4_center_row():
    g = StarGraph.affine("D4")
    assert g.cartan[0] == (2, -1, -1, -1, -1)


@pytest.mark.parametrize("name", AFFINE_TYPES)
def test_delta_matches_diagram_marks(name):
    g = StarGraph.affine(name)
    assert g.delta.coords == DIAGRAM_MARKS[name]
    # delta spans ker C: C delta = 0 exactly
    c = g.cartan
    for i in range(g.node_count):
        assert sum(c[i][j] * g.delta[j] for j in range(g.node_count)) == 0


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
        # the finite form: root_form with a 0 at the extending node
        padded = RootVector(root.coords + (0,))
        assert root_form(g, padded, padded) == 2
    # closed under negation
    coords = {root.coords for root in roots}
    assert all(tuple(-x for x in c) in coords for c in coords)
    # the positive roots come first, one of each pair r, -r
    pos = positive_roots(g)
    assert len(pos) == hyperplane_count(g)
    assert all(min(root.coords) >= 0 for root in pos)
    assert {(-root).coords for root in pos} == \
        {root.coords for root in roots[len(pos):]}


# small entries put lam on root hyperplanes often; denominators near 10**30
# take the pairings past int64
_SMALL = st.fractions(min_value=-3, max_value=3, max_denominator=3)
_HUGE = st.builds(F, st.integers(-10 ** 31, 10 ** 31),
                  st.integers(10 ** 29, 10 ** 31))
_RATIONAL = _SMALL | _HUGE | st.sampled_from([F(0)])
_GAUSSIAN = st.builds(GaussianRational, _RATIONAL, _RATIONAL)


@st.composite
def _level_zero(draw, field):
    """(graph, level-zero lam over Q or Q(i))."""
    g = StarGraph.affine(draw(st.sampled_from(AFFINE_TYPES)))
    entry = _RATIONAL if field == "Q" else _RATIONAL | _GAUSSIAN
    vals = [draw(entry) for _ in range(g.node_count - 1)]
    delta = g.delta
    vals.append(-sum((d * v for d, v in zip(delta.coords, vals)), F(0))
                / delta[g.extending])
    return g, ParamVector(tuple(vals))


def _parts(x):
    return (x.re, x.im) if isinstance(x, GaussianRational) else (x, F(0))


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(["Q", "Qi"]).flatmap(_level_zero))
def test_root_pairings_match_the_single_root_reference(case):
    g, lam = case
    roots = enumerate_roots(g)
    exact = [root_pairing(r, lam) for r in roots]
    num, den = root_pairings(g, lam)
    assert len(num) == len(roots)
    for pair, p in zip(num, exact):
        assert all(type(x) is int for x in pair) and len(pair) == 2
        assert (F(pair[0], den), F(pair[1], den)) == _parts(p)
    flag, violated = is_regular(g, lam)
    want = tuple(r for r, p in zip(roots, exact) if p == 0)
    assert violated == want and flag == (not want)
    assert smallest_root_pairing(g, lam) == min(
        abs(to_complex(root_pairing(r, lam))) for r in positive_roots(g))


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(["Q", "Qi"]).flatmap(_level_zero),
       _RATIONAL | _GAUSSIAN, st.integers(0, 8))
def test_is_level_zero_matches_the_exact_level(case, shift, node):
    # every delta_i is positive: a shift at one node moves lam off level
    # zero unless it is 0
    g, lam = case
    node %= g.node_count
    moved = lam.replace(node, lam[node] + shift)
    for v in (lam, moved):
        assert v.is_level_zero(g.delta) == (v.level(g.delta) == 0)
    assert lam.is_level_zero(g.delta)
    assert moved.is_level_zero(g.delta) == (shift == 0)


def test_root_pairings_stay_exact_past_int64():
    g = StarGraph.affine("E8")
    small = rand_level_zero(g, random.Random(29))
    eps = F(1, 10 ** 30 + 7)
    huge = small.replace(1, small[1] + eps).replace(
        g.extending, small[g.extending] - g.delta[1] * eps)
    assert huge.is_level_zero(g.delta)
    num, den = root_pairings(g, huge)
    assert den > 2 ** 63 and max(abs(re) for re, _ in num) > 2 ** 63
    assert [F(re, den) for re, _ in num] == \
        [root_pairing(r, huge) for r in enumerate_roots(g)]
    assert all(im == 0 for _, im in num)


# lam that random_regular_lam drew when it scored each root with
# root_pairing, on seeds (sample_system's rng) where the root margin rejects
# at least one draw, and D4 seed 0
PINNED_LAMS = (
    (("D4", 0), ("-5561/2310", "11/3", "1/5", "-8/7", "23/11")),
    (("D4", 35), ("2342/1155", "-4/3", "-14/5", "-2/7", "4/11")),
    (("E6", 5), ("-508553/765765", "-10/3", "3/5", "20/7", "35/11", "-2/13",
                 "-9/17")),
    (("E7", 8), ("-52549139/19399380", "5/3", "17/5", "-13/7", "-29/11",
                 "7/13", "-14/17", "70/19")),
    (("E8", 6), ("112766398/111546435", "-7/3", "-16/5", "-5/7", "-42/11",
                 "46/13", "57/17", "64/19", "76/23")),
)


@pytest.mark.parametrize("key, values", PINNED_LAMS,
                         ids=[f"{t}-{s}" for (t, s), _ in PINNED_LAMS])
def test_random_regular_lam_is_pinned(key, values):
    t, s = key
    lam = random_regular_lam(StarGraph.affine(t),
                             random.Random(f"starweyl/{t}/{s}"))
    assert tuple(format_rational(v) for v in lam.values) == values


def test_tables_are_shared_per_leg_signature():
    a, b = StarGraph.affine("E7"), StarGraph((3, 1, 3))
    assert a is not b and a.legs == b.legs
    assert a.cartan is b.cartan and a.delta is b.delta
    assert enumerate_roots(a) is enumerate_roots(b)


def test_param_vector_is_exact_by_construction():
    gq = GaussianRational(F(1, 2), F(-1, 3))
    lam = ParamVector((1, F(2, 3), gq))
    assert lam.values == (F(1), F(2, 3), gq)
    assert type(lam[0]) is F and lam.field == "Qi"
    assert ParamVector((1, F(-1, 2))).field == "Q"
    for bad in (0.5, 1j, "1/2", None):
        with pytest.raises(TypeError):
            ParamVector((F(1), bad))


def test_param_vector_field_does_not_depend_on_the_spelling():
    # a Gaussian rational with zero imaginary part is narrowed to a Fraction
    i = GaussianRational(0, 1)
    total = ParamVector((i,)) + ParamVector((-i,))
    assert total.values == (F(0),) and type(total[0]) is F
    assert total.field == "Q"
    lam = ParamVector((GaussianRational(-1, 0), F(1, 2), i))
    assert type(lam[0]) is F and lam[0] == -1 and lam[2] is i
    assert ParamVector((GaussianRational(-1, 0), 0)).field == "Q"


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


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(["Q", "Qi"]).flatmap(_level_zero))
def test_coxeter_relations_hold_on_random_lam(case):
    g, lam = case
    for i in range(g.node_count):
        for j in range(i, g.node_count):  # m_ii = 1: each r_i is an involution
            out = lam
            for _ in range(coxeter_exponent(g, i, j)):
                out = reflect_param(g, j, reflect_param(g, i, out))
            assert out.values == lam.values


def test_d4_weyl_group_order_by_orbit():
    g = StarGraph.affine("D4")
    thetas = [F(1, 2), F(1, 3), F(1, 5), F(1, 7)]
    lam = ParamVector((sum(thetas) / 2, -thetas[0], -thetas[1], -thetas[2],
                       -thetas[3]))
    assert is_regular(g, lam)[0]
    orbit = weyl_orbit(g, lam)
    assert len(orbit) == WEYL_ORDER["D4"] == 192


@pytest.mark.parametrize("name", ("E6", "E7", "E8"))
def test_root_orbit_size_divides_weyl_order(name):
    g = StarGraph.affine(name)
    alpha1 = ParamVector(tuple(F(x) for x in g.cartan[1]))
    orbit = weyl_orbit(g, alpha1)
    assert len(orbit) == ROOT_COUNTS[name]
    assert WEYL_ORDER[name] % len(orbit) == 0


@pytest.mark.parametrize("name,index", [("D4", 4), ("E6", 3), ("E7", 2), ("E8", 1)])
def test_weight_to_root_lattice_index(name, index):
    assert lattice_index(StarGraph.affine(name)) == index


def test_weight_lattice_membership_and_affine_action():
    g = StarGraph.affine("E7")
    rng = random.Random(19)
    lam = rand_level_zero(g, rng)
    # alpha_1 (a Cartan row) is in the root lattice, hence in P(R)
    assert weight_lattice_member(g, tuple(g.cartan[1]))
    assert not weight_lattice_member(g, (F(1, 2),) + (F(0),) * (g.node_count - 1))
    # a vector of the wrong length is not truncated or padded into P(R)
    assert not weight_lattice_member(g, (0, 0))
    assert not weight_lattice_member(g, (0,) * (g.node_count + 1))
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


def test_value_classes_keep_frozen_dataclass_semantics():
    from starweyl.quiver import DimensionVector
    from starweyl.sakai import PicardLattice, PointConfig
    r = RootVector((1, -2, 3))
    assert r == RootVector([1, -2, 3]) and r != RootVector((1, -2, 4))
    # equality is within one class, as with the dataclass
    assert r.__eq__(DimensionVector((1, 2, 3))) is NotImplemented
    assert RootVector((1, 2, 3)) != DimensionVector((1, 2, 3))
    assert hash(r) == hash(((1, -2, 3),))
    assert hash(AffineWeylElement((0, 1), (1, -1))) == hash(((0, 1), (1, -1)))
    assert hash(StarGraph((5, 1, 2))) == hash(((1, 2, 5),))
    assert hash(PointConfig(range(6))) == hash((tuple(map(F, range(6))),))
    assert repr(r) == "RootVector(coords=(1, -2, 3))"
    assert repr(DimensionVector((0, 1))) == "DimensionVector(coords=(0, 1))"
    assert repr(ParamVector((1,))) == "ParamVector(values=(Fraction(1, 1),))"
    assert repr(PicardLattice(9)) == "PicardLattice(r=9)"
    assert repr(StarGraph((1, 2, 5))) == "StarGraph(1, 2, 5)<affine E8>"
    g = StarGraph((1, 2, 5))
    for obj, name in ((r, "coords"), (g, "legs"), (PicardLattice(8), "r"),
                      (ParamVector((1,)), "values"), (g, "not_a_field")):
        with pytest.raises(AttributeError):
            setattr(obj, name, None)
    with pytest.raises(AttributeError):
        del r.coords
    assert g.delta == RootVector((6, 3, 4, 2, 5, 4, 3, 2, 1))  # cached
    with pytest.raises(ValueError):
        DimensionVector((1, -1))
    assert AffineWeylElement() == AffineWeylElement((), ())
    assert AffineWeylElement(translation=(1, -1)).word == ()


def test_general_star_graph_interop():
    g = StarGraph((2, 3, 5))
    assert g.node_count == 11
    assert g.legs == (2, 3, 5)
    with pytest.raises(ValueError):
        g.delta  # not an affine type: ker C is not a line


@pytest.mark.parametrize("legs", [(2, 2, 2, 2), (1, 1, 1), (1, 1, 1, 1, 1),
                                  (1, 5), (3,), (1, 2, 6), (2, 3, 3)])
def test_delta_refuses_legs_that_are_not_affine(legs):
    with pytest.raises(ValueError, match="not of affine type"):
        StarGraph(legs).delta
