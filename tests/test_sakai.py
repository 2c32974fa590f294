import contextlib
import io
import itertools
import random
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from starweyl import cli
from starweyl.dynkin import reflect_param
from starweyl.errors import InputFormatError
from starweyl.sakai import (
    PicardLattice,
    PointConfig,
    act_simple,
    act_word,
    chi,
    config_translation,
    cremona_reflect,
    dynkin_graph,
    kronheimer_step,
    lam_from_config,
    reflect_pic,
    sakai_orbit,
    sakai_to_dynkin_nodes,
    swap_points,
    wall_check,
)

POSITIVE_ROOTS = {6: 36, 7: 63, 8: 120}


def basis_vector(lat, i):
    return tuple(F(1 if j == i else 0) for j in range(lat.r + 1))


def rand_config(r, rng):
    return PointConfig(tuple(F(rng.randint(-40, 40), rng.randint(1, 13))
                             for _ in range(r)))


def test_lattice_basics():
    lat = PicardLattice(8)
    e0 = basis_vector(lat, 0)
    e1 = basis_vector(lat, 1)
    assert lat.intersect(e0, e0) == 1
    assert lat.intersect(e1, e1) == -1
    assert lat.intersect(e0, e1) == 0
    assert lat.intersect(lat.delta, lat.delta) == 9 - 8
    for r in (6, 7, 9):
        lat = PicardLattice(r)
        assert lat.intersect(lat.delta, lat.delta) == 9 - r
        for alpha in lat.simple_roots:
            assert lat.intersect(alpha, alpha) == -2
            assert lat.intersect(alpha, lat.delta) == 0


def test_reflection_properties():
    rng = random.Random(1)
    for r in (6, 7, 8, 9):
        lat = PicardLattice(r)
        for alpha in lat.simple_roots:
            assert reflect_pic(lat, lat.delta, alpha) == lat.delta
            assert reflect_pic(lat, alpha, alpha) == tuple(-x for x in alpha)
            for _ in range(3):
                f = tuple(F(rng.randint(-5, 5)) for _ in range(r + 1))
                h = tuple(F(rng.randint(-5, 5)) for _ in range(r + 1))
                sf, sh = reflect_pic(lat, f, alpha), reflect_pic(lat, h, alpha)
                assert lat.intersect(sf, sh) == lat.intersect(f, h)
                assert reflect_pic(lat, sf, alpha) == f


def test_chi_formulas():
    p = PointConfig((F(1), F(2), F(3), F(5), F(7), F(11)))
    lat = p.lattice
    line = [F(0)] * 7
    line[1], line[2] = F(1), F(-1)
    assert chi(p, tuple(line)) == -1
    assert chi(p, lat.beta_vector(1)) == 1
    assert chi(p, lat.simple_roots[0]) == -(1 + 2 + 3)
    with pytest.raises(ValueError):
        chi(p, basis_vector(lat, 0))  # not delta-orthogonal


def test_cremona_explicit_values():
    p = PointConfig((F(1), F(2), F(3), F(5), F(7), F(11)))
    q = cremona_reflect(p)
    assert q.values == (F(-3), F(-2), F(-1), F(7), F(9), F(13))
    assert cremona_reflect(q).values == p.values
    # fixed when the first three sum to zero
    p0 = PointConfig((F(1), F(-1), F(0), F(5), F(7), F(11)))
    assert cremona_reflect(p0).values == p0.values


def test_swap_points():
    p = PointConfig((F(1), F(2), F(3), F(5), F(7), F(11)))
    q = swap_points(p, 1, 4)
    assert q.values == (F(5), F(2), F(3), F(1), F(7), F(11))
    assert swap_points(q, 1, 4).values == p.values
    with pytest.raises(ValueError):
        swap_points(p, 2, 2)


@pytest.mark.parametrize("r", (6, 7, 8, 9))
def test_chi_equivariance_exact(r):
    rng = random.Random(r)
    lat = PicardLattice(r)
    for _ in range(25):
        p = rand_config(r, rng)
        for k in range(r):
            q = act_simple(p, k)
            alpha = lat.simple_roots[k]
            for line in lat.simple_roots:
                assert chi(q, line) == chi(p, reflect_pic(lat, line, alpha))


@pytest.mark.parametrize("r", (6, 7, 8, 9))
def test_beta_identification_matches_dynkin(r):
    rng = random.Random(10 + r)
    g = dynkin_graph(r)
    sigma = sakai_to_dynkin_nodes(r)
    for _ in range(25):
        p = rand_config(r, rng)
        lam = lam_from_config(p)
        for k in range(r):
            q = act_simple(p, k)
            assert lam_from_config(q).values == reflect_param(g, sigma[k],
                                                              lam).values


def test_wall_candidate_counts_match_positive_roots():
    import itertools
    from math import comb
    for r in (6, 7, 8):
        count = comb(r, 2) + comb(r, 3) + comb(r, 6)
        if r >= 8:
            count += comb(r, 8) * 8
        assert count == POSITIVE_ROOTS[r]


def test_wall_check_reports():
    rng = random.Random(5)
    p = PointConfig((F(1, 3), F(2, 5), F(3, 7), F(4, 11), F(5, 13), F(6, 17)))
    assert wall_check(p) == ()
    p_eq = PointConfig((F(1), F(1), F(3), F(5), F(7), F(11)))
    assert ("equal", (1, 2)) in wall_check(p_eq)
    p_col = PointConfig((F(1), F(2), F(-3), F(5), F(7), F(11)))
    assert ("collinear", (1, 2, 3)) in wall_check(p_col)
    six = (F(1), F(2), F(3), F(-1), F(-2), F(-3), F(5))
    assert any(w[0] == "conic" for w in wall_check(PointConfig(six)))
    # r = 9 walls are read modulo the total sum: choose u_2 so that
    # u_1 - u_2 equals the (new) total exactly
    others = [F(1), F(2), F(4), F(8), F(16), F(32), F(64), F(128), F(1)]
    s_others = sum(others) - others[1]
    u2 = (others[0] - s_others) / 2
    vals9 = list(others)
    vals9[1] = u2
    p9 = PointConfig(tuple(vals9))
    assert p9[0] - p9[1] == p9.total()
    assert ("equal", (1, 2)) in wall_check(p9)


def test_wall_locus_invariant_under_action():
    rng = random.Random(9)
    for r in (6, 8):
        p = rand_config(r, rng)
        vals = list(p.values)
        vals[1] = vals[0]  # on the u_1 = u_2 wall
        p = PointConfig(tuple(vals))
        word = [rng.randrange(r) for _ in range(12)]
        q = act_word(p, word)
        assert wall_check(q), "the wall locus must map to itself"


def test_config_translation_r9():
    rng = random.Random(11)
    p = rand_config(9, rng)
    mu = (1, 0, -2, 0, 1, 0, 0, 3)
    rows = sakai_orbit(p, mu, 8)
    s = p.total()
    step_vec = tuple(b - a for a, b in zip(rows[0][1].values, rows[1][1].values))
    assert any(x != 0 for x in step_vec)
    for k in range(8):
        d = tuple(b - a for a, b in zip(rows[k][1].values, rows[k + 1][1].values))
        assert d == step_vec
        assert rows[k + 1][1].total() == s
    # mu = 0 gives the constant trajectory
    rows0 = sakai_orbit(p, (0,) * 8, 3)
    assert all(row[1].values == p.values for row in rows0)
    # chi-level translation law: chi moves by -(L . mu) * sum
    lat = p.lattice
    mu_vec = [F(0)] * 10
    for c, root in zip(mu, lat.simple_roots[:8]):
        mu_vec = [a + F(c) * b for a, b in zip(mu_vec, root)]
    q = config_translation(p, mu)
    for line in lat.simple_roots:
        assert chi(q, line) == chi(p, line) - s * lat.intersect(line, tuple(mu_vec))
    # a lattice translation has integer root coefficients
    assert config_translation(p, tuple(map(F, mu))) == q
    with pytest.raises(InputFormatError):
        config_translation(p, (F(1, 2),) + mu[1:])


def test_kronheimer_step_r_le_8():
    rng = random.Random(13)
    for r in (6, 7, 8):
        p = rand_config(r, rng)
        mu = tuple(rng.randint(-2, 2) for _ in range(r))
        q = kronheimer_step(p, mu)
        dl = tuple(b - a for a, b in zip(lam_from_config(p).values,
                                         lam_from_config(q).values))
        assert dl == tuple(F(x) for x in mu)
        rows = sakai_orbit(p, mu, 5)
        for k, cfg, _ in rows:
            want = tuple(u + k * (qq - uu) for u, uu, qq
                         in zip(p.values, p.values, q.values))
            assert cfg.values == want


# ---------------------------------------------------------------------------
# the integer wall kernel and the one-step orbit against the Fraction loops


def _near_integer_multiple(value: F, s: F) -> bool:
    """Whether value lies in Z * s (the r = 9 wall condition is read
    modulo integer multiples of the sum of the points)."""
    if s == 0:
        return value == 0
    q = value / s
    return q.denominator == 1


def _reference_wall_check(p: PointConfig):
    """Violated wall conditions: equal points, collinear triples, six on a
    conic, eight on a nodal cubic.  For r = 9 each is read modulo integer
    multiples of the total sum."""
    r = p.r
    mod = p.total() if r == 9 else None

    def hits(value):
        if mod is None:
            return value == 0
        return _near_integer_multiple(value, mod)

    out = []
    idx = range(1, r + 1)
    for i, j in itertools.combinations(idx, 2):
        if hits(p[i - 1] - p[j - 1]):
            out.append(("equal", (i, j)))
    for c in itertools.combinations(idx, 3):
        if hits(sum((p[i - 1] for i in c), F(0))):
            out.append(("collinear", c))
    for c in itertools.combinations(idx, 6):
        if hits(sum((p[i - 1] for i in c), F(0))):
            out.append(("conic", c))
    if r >= 8:
        for c in itertools.combinations(idx, 8):
            for double in c:
                rest = sum((p[i - 1] for i in c), F(0)) + p[double - 1]
                if hits(rest):
                    out.append(("nodal_cubic", (double,) + tuple(k for k in c
                                                                 if k != double)))
    return tuple(out)


def _reference_orbit(p, mu, steps):
    """Iterate the translation step by step."""
    rows = [(0, p, _reference_wall_check(p))]
    cur = p
    for k in range(1, steps + 1):
        cur = config_translation(cur, mu) if p.r == 9 else kronheimer_step(cur, mu)
        rows.append((k, cur, _reference_wall_check(cur)))
    return rows


_WALL_SIZES = {"equal": 2, "collinear": 3, "conic": 6, "nodal_cubic": 8}
_RATIONAL = st.builds(
    F, st.integers(-40, 40) | st.integers(-10**30, 10**30),
    st.integers(1, 13) | st.integers(1, 10**30))
_SMALL_TOTALS = (F(0), F(1), F(-1), F(1, 2), F(-3), F(2, 7))


def _coefficients(r, kind, labels):
    """The wall's sum as coefficients of u_1..u_r (0-based labels)."""
    c = [0] * r
    if kind == "equal":
        c[labels[0]], c[labels[1]] = 1, -1
        return c
    for i in labels:
        c[i] += 1
    if kind == "nodal_cubic":
        c[labels[0]] += 1  # the double point
    return c


def _solve_two(vals, a, b, rhs):
    """Change two entries of vals so that a.u = 0 and b.u = rhs."""
    r = len(vals)
    for j, k in itertools.combinations(range(r), 2):
        det = a[j] * b[k] - a[k] * b[j]
        if det:
            fa = -sum(a[i] * vals[i] for i in range(r) if i not in (j, k))
            fb = rhs - sum(b[i] * vals[i] for i in range(r) if i not in (j, k))
            vals[j] = (fa * b[k] - a[k] * fb) / det
            vals[k] = (a[j] * fb - fa * b[j]) / det
            return
    raise AssertionError("no solvable pair")


@st.composite
def wall_configs(draw, sizes=st.integers(6, 9)):
    """Rational r-point configurations, r drawn from sizes, optionally
    forced onto a drawn wall (for r = 9 a drawn integer multiple m of the
    total) and, for r = 9, onto a total of 0 or a small nonzero value."""
    r = draw(sizes)
    vals = draw(st.lists(_RATIONAL, min_size=r, max_size=r))
    kinds = [k for k, size in _WALL_SIZES.items() if size <= r]
    kind = draw(st.none() | st.sampled_from(kinds))
    total = draw(st.none() | st.sampled_from(_SMALL_TOTALS)) if r == 9 else None
    if kind is not None:
        labels = draw(st.permutations(range(r)))[:_WALL_SIZES[kind]]
        m = draw(st.integers(-2, 2)) if r == 9 else 0
        a = [c - m for c in _coefficients(r, kind, labels)]
        if total is None:
            j = next(i for i in range(r) if a[i])
            vals[j] = -sum(a[i] * vals[i] for i in range(r) if i != j) / a[j]
        else:
            _solve_two(vals, a, [1] * r, total)
    elif total is not None:
        vals[-1] = total - sum(vals[:-1])
    return PointConfig(tuple(vals)), kind


@settings(max_examples=300, deadline=None)
@given(case=wall_configs())
def test_wall_check_matches_the_fraction_loops(case):
    p, forced = case
    got = wall_check(p)
    assert got == _reference_wall_check(p)
    if forced is not None:
        assert forced in {kind for kind, _ in got}


@settings(max_examples=200, deadline=None)
@given(case=wall_configs(st.just(9)),
       mu=st.lists(st.integers(-3, 3), min_size=8, max_size=8),
       steps=st.integers(0, 6))
def test_sakai_orbit_r9_reuses_row_0_flags(case, mu, steps):
    """For r = 9 sakai_orbit checks the walls of row 0 only; checking
    every row gives the same flags, also when the total is 0."""
    p, forced = case
    rows = sakai_orbit(p, mu, steps)
    assert [walls for _, _, walls in rows] == \
        [wall_check(q) for _, q, _ in rows]
    if forced is not None:
        assert all(forced in {kind for kind, _ in walls}
                   for _, _, walls in rows)


@pytest.mark.parametrize("r", (6, 7, 8, 9))
def test_sakai_orbit_matches_the_iterated_step(r):
    rng = random.Random(40 + r)
    for steps in (0, 1, 2, 5, 12):
        if r == 9:
            mu = tuple(rng.randint(-2, 2) for _ in range(8))
            vals = list(rand_config(r, rng).values)
            # u_1 - u_2 is the total: on the equal wall at every step
            vals[1] = -sum(vals[2:]) / 2
        else:
            mu = tuple(rng.randint(-2, 2) for _ in range(r))
            vals = list(rand_config(r, rng).values)
            w = [b - a for a, b in zip(vals, kronheimer_step(
                PointConfig(tuple(vals)), mu).values)]
            # u_1 = u_2 at step k0 only, when w_1 != w_2
            k0 = rng.randint(0, steps)
            vals[1] = vals[0] + k0 * (w[0] - w[1])
        p = PointConfig(tuple(vals))
        got, want = sakai_orbit(p, mu, steps), _reference_orbit(p, mu, steps)
        assert [(k, q.values, walls) for k, q, walls in got] == \
            [(k, q.values, walls) for k, q, walls in want]
        assert all(type(u) is F for _, q, _ in got for u in q.values)
        assert any(("equal", (1, 2)) in walls for _, _, walls in got)


def test_sakai_r9_golden_csv():
    """A 30-step r = 9 orbit on walls: stdout is byte for byte the stored
    CSV (the same command runs on the installed console script in CI)."""
    data = Path(__file__).parent / "data"
    with contextlib.redirect_stdout(io.StringIO()) as out:
        code = cli.main(["sakai", "--config", str(data / "sakai_r9_wall.json"),
                         "--mu", "[1,0,-2,0,1,0,0,3]", "--steps", "30"])
    assert code == 0
    assert out.getvalue().encode() == (data / "sakai_r9_wall.csv").read_bytes()
    assert "nodal_cubic" in out.getvalue()
