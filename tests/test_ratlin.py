import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from starweyl import ratlin
from starweyl.ratlin import GaussianRational as GR


def nullspace(a):
    """Basis of the right kernel, as a tuple of vectors, from the reduced
    row echelon form the solver uses."""
    m, pivots = ratlin._rref(a)
    basis = []
    for fc in (c for c in range(len(a[0])) if c not in pivots):
        v = [F(0)] * len(a[0])
        v[fc] = F(1)
        for row, pc in zip(m, pivots):
            v[pc] = -row[fc]
        basis.append(tuple(v))
    return tuple(basis)


def test_gaussian_arithmetic():
    a = GR(F(1, 2), F(1, 3))
    b = GR(F(2, 5), F(-1, 7))
    assert (a + b) - b == a
    assert (a * b) / b == a
    assert a * (1 / a) == GR(1, 0) == 1
    assert a + 0 == a and 0 + a == a
    assert (a - a) == 0 and not bool(a - a)
    assert GR(F(3, 4), 0) == F(3, 4)
    assert hash(GR(F(3, 4), 0)) == hash(F(3, 4))
    assert complex(GR(1, -2)) == complex(1, -2)


@pytest.mark.parametrize("s", ["3", "-5/7", "1/2+1/3i", "2-3/4i", "-2/3i"])
def test_rational_string_roundtrip(s):
    v = ratlin.parse_rational(s)
    assert ratlin.parse_rational(ratlin.format_rational(v)) == v


_Q = st.fractions(max_denominator=10 ** 6)


@given(st.one_of(_Q, st.builds(GR, _Q, _Q)))
def test_format_parse_rational_round_trip(q):
    text = ratlin.format_rational(q)
    back = ratlin.parse_rational(text)
    assert back == q and ratlin.format_rational(back) == text


def test_charpoly_matches_known_roots():
    rng = random.Random(0)
    for _ in range(20):
        roots = [F(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(4)]
        # build a conjugated companion-free witness: triangular with the roots
        a = [[roots[i] if i == j else F(rng.randint(-3, 3))
              if j > i else F(0) for j in range(4)] for i in range(4)]
        cp = ratlin.charpoly(ratlin.mat(a))
        assert cp == ratlin.poly_from_roots([(r, 1) for r in roots])


def test_det_rank_solve_inverse():
    a = ratlin.mat([[F(2), F(1)], [F(1), F(1)]])
    assert ratlin.det(a) == 1
    assert ratlin.rank(a) == 2
    inv = ratlin.inv(a)
    assert ratlin.mmul(a, inv) == ratlin.identity(2)
    sing = ratlin.mat([[F(1), F(2)], [F(2), F(4)]])
    assert ratlin.rank(sing) == 1
    ker = nullspace(sing)
    assert len(ker) == 1
    assert ratlin.mmul(sing, ratlin.transpose([ker[0]])) == ((F(0),), (F(0),))


def test_left_pseudo_inverse():
    rng = random.Random(1)
    phi = ratlin.mat([[F(rng.randint(-5, 5), rng.randint(1, 3))
                       for _ in range(2)] for _ in range(4)])
    pinv = ratlin.left_pseudo_inverse(phi)
    assert ratlin.mmul(pinv, phi) == ratlin.identity(2)


def test_smith_diagonal():
    assert ratlin.smith_diagonal([[2, 0], [0, 3]]) == (1, 6)
    assert ratlin.smith_diagonal([[1, 0], [0, 1]]) == (1, 1)
    # rank-deficient matrices only list the nonzero part
    assert ratlin.smith_diagonal([[2, 4], [1, 2]]) == (1,)


_SMALL_Q = st.fractions(min_value=-4, max_value=4, max_denominator=3)


def _matrix(rows, cols):
    return st.lists(st.lists(_SMALL_Q, min_size=cols, max_size=cols),
                    min_size=rows, max_size=rows).map(ratlin.mat)


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 5).flatmap(lambda n: st.tuples(
    st.integers(1, 5).flatmap(lambda c: _matrix(n, c)),
    _matrix(n, n), _matrix(n, 2))))
def test_elimination_rank_kernel_and_solve(mats):
    a, sq, b = mats
    ker = nullspace(a)
    assert ratlin.rank(a) + len(ker) == len(a[0])
    zero = ((F(0),),) * len(a)
    assert all(ratlin.mmul(a, ratlin.transpose([v])) == zero for v in ker)
    # det comes from the characteristic polynomial, not from elimination
    if ratlin.det(sq) == 0:
        assert ratlin.rank(sq) < len(sq)
        with pytest.raises(ZeroDivisionError):
            ratlin.solve(sq, b)
    else:
        assert ratlin.mmul(sq, ratlin.solve(sq, b)) == b


def test_solve_rejects_singular_matrix():
    sing = ratlin.mat([[F(1), F(2)], [F(2), F(4)]])
    with pytest.raises(ZeroDivisionError):
        ratlin.solve(sing, ratlin.identity(2))
    with pytest.raises(ZeroDivisionError):
        ratlin.inv(sing)
