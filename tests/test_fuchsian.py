import functools
import json
import os
import random
from collections import Counter
from fractions import Fraction as F
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from starweyl.dynkin import AFFINE_TYPES, StarGraph, is_regular
from starweyl.errors import DegeneracyError
from starweyl.fuchsian import (
    OrbitSpec,
    algebra_dimension,
    char_poly_error,
    conjugated,
    is_irreducible,
    leg_from_orbit,
    make_system,
    normalize,
    orbit_from_leg,
    predicted_specs,
    random_regular_lam,
    sample_system,
    signature,
)
from starweyl.ratlin import (
    GaussianRational,
    format_rational,
    poly_from_roots,
    to_complex,
)

E8_MULTS = ((3, 3), (2, 2, 2), (1, 1, 1, 1, 1, 1))


def test_orbit_from_leg_partial_sums():
    l3, l2, l1 = F(1, 3), F(2, 5), F(-3, 7)
    spec = orbit_from_leg(4, (3, 2, 1), (l3, l2, l1))
    assert spec.entries == ((F(0), 1), (-l3, 1), (-l3 - l2, 1),
                            (-l3 - l2 - l1, 1))
    # a 5x5 orbit with a length-3 leg: zero picks up the dimension drop
    l, m, s = F(1, 2), F(1, 3), F(1, 5)
    spec = orbit_from_leg(5, (3, 2, 1), (l, m, s))
    assert spec.entries == ((F(0), 2), (-l, 1), (-l - m, 1), (-l - m - s, 1))


def test_orbit_from_leg_zero_parameters_collapse():
    spec = orbit_from_leg(4, (3, 2, 1), (F(0), F(0), F(0)))
    assert spec.entries == ((F(0), 4),)
    assert spec.width == 1


def test_leg_from_orbit_table_rows():
    assert leg_from_orbit(OrbitSpec(6, ((F(1), 3), (F(2), 3)))) == (3,)
    assert leg_from_orbit(OrbitSpec(6, ((F(1), 2), (F(2), 2), (F(3), 2)))) == (4, 2)
    assert leg_from_orbit(OrbitSpec(6, tuple((F(k), 1) for k in range(6)))) \
        == (5, 4, 3, 2, 1)
    assert leg_from_orbit(OrbitSpec(3, tuple((F(k), 1) for k in range(3)))) == (2, 1)


def test_leg_orbit_round_trip():
    rng = random.Random(3)
    for _ in range(20):
        params = [F(rng.randint(1, 9), rng.randint(1, 7)) for _ in range(3)]
        spec = orbit_from_leg(4, (3, 2, 1), params)
        dims = leg_from_orbit(spec)
        assert dims == (3, 2, 1)
        again = orbit_from_leg(4, dims, params)
        assert again.entries == spec.entries


@pytest.mark.parametrize("name", AFFINE_TYPES)
def test_sample_system_structure(name):
    sysm, lam = sample_system(name, seed=0)
    g = sysm.graph
    assert lam.is_level_zero(g.delta)
    assert is_regular(g, lam)[0]
    assert sysm.normalization == "det_zero"
    worst = sysm.verify()
    assert worst < 1e-9
    # sum constraint at machine precision
    total = sum(sysm.residues) - complex(sysm.nu) * np.eye(sysm.n)
    scale = sum(np.linalg.norm(a) for a in sysm.residues)
    assert np.linalg.norm(total) < 1e-10 * scale


def test_sample_table_orbit_types():
    sysm, _ = sample_system("E8", seed=1)
    assert sysm.n == 6
    assert tuple(s.mults for s in sysm.specs) == E8_MULTS
    sysm, _ = sample_system("E6", seed=1)
    assert sysm.n == 3
    assert all(s.mults == (1, 1, 1) for s in sysm.specs)
    sysm, _ = sample_system("E7", seed=1)
    assert tuple(s.mults for s in sysm.specs) == ((2, 2), (1,) * 4, (1,) * 4)
    sysm, _ = sample_system("D4", seed=1)
    assert sysm.n == 2 and sysm.m == 4
    for a in sysm.residues:
        assert np.linalg.matrix_rank(a, tol=1e-8) == 1


def test_sampling_is_deterministic():
    a, _ = sample_system("E7", seed=5)
    b, _ = sample_system("E7", seed=5)
    assert all((x == y).all() for x, y in zip(a.residues, b.residues))


def test_sampled_lam_matches_the_golden_tracks():
    """The exact lam of sample_system(t, s) for D4/E6/E7/E8 and seeds
    0-24, pinned in tests/data/sample_lam.json: a change to the fit may
    move float bits of the residues, never which lam a seed draws."""
    golden = json.loads((Path(__file__).parent / "data" / "sample_lam.json")
                        .read_text())
    assert sorted(golden) == ["D4", "E6", "E7", "E8"]
    for type_name, tracks in golden.items():
        assert len(tracks) == 25
        for seed, want in enumerate(tracks):
            lam = sample_system(type_name, seed)[1]
            assert [format_rational(v) for v in lam.values] == want, \
                (type_name, seed)


def test_specs_are_computed_once_per_system():
    sysm, _ = sample_system("E6", seed=2)
    assert sysm.specs is sysm.specs
    assert sysm.specs == predicted_specs(sysm.graph, sysm.lam, sysm.offsets)
    moved = normalize(sysm, "trace_zero")
    assert moved.specs is not sysm.specs
    assert moved.specs == predicted_specs(moved.graph, moved.lam,
                                          moved.offsets)


def test_nu_and_the_closing_residue_are_derived():
    """Only the finite residues and the exact data are stored: a replace
    that moves lam or the offsets moves nu and A_m with them."""
    from dataclasses import fields, replace

    from starweyl.fuchsian import FuchsianSystem, closing_residue
    assert [f.name for f in fields(FuchsianSystem)] == [
        "graph", "poles", "finite_residues", "lam", "offsets", "tol"]
    sysm, lam = sample_system("D4", seed=2)
    c = sysm.graph.center
    assert sysm.nu == lam[c] and sysm.m == 4
    assert sysm.residues[:-1] == sysm.finite_residues
    moved = replace(sysm, offsets=(F(1), F(0), F(2), F(-1, 3)))
    assert moved.nu == lam[c] + F(8, 3)
    assert np.array_equal(moved.residues[-1],
                          closing_residue(sysm.finite_residues, moved.nu))
    assert not moved.residues[-1].flags.writeable
    with pytest.raises(ValueError, match="finite residue count"):
        replace(sysm, finite_residues=sysm.finite_residues[:-1]).verify()


def test_normalize_modes_and_round_trip():
    sysm, _ = sample_system("E6", seed=2)
    assert normalize(sysm, "det_zero") is sysm  # already there
    tz = normalize(sysm, "trace_zero")
    assert tz.normalization == "trace_zero"
    for a in tz.residues:
        assert abs(np.trace(a)) < 1e-10
    assert tz.nu == 0
    dz = normalize(tz, "det_zero")
    assert dz.normalization == "det_zero"
    assert signature(dz, 3).distance(signature(sysm, 3)) < 1e-10
    # eigenvalues reproduced through the round trip
    for a, s in zip(dz.residues, dz.specs):
        got = np.sort_complex(np.linalg.eigvals(a))
        want = np.sort_complex(s.eigen_complex())
        assert np.max(np.abs(got - want)) < 1e-10


def test_pvi_det_zero_eigenvalues():
    sysm, lam = sample_system("D4", seed=3)
    g = sysm.graph
    for j, a in enumerate(sysm.residues):
        theta = -lam[g.leg_nodes(j)[0]]
        got = np.sort_complex(np.linalg.eigvals(a))
        want = np.sort_complex(np.array([0, complex(theta)]))
        assert np.max(np.abs(got - want)) < 1e-9
    # sum of thetas = 2 nu
    thetas = [-lam[g.leg_nodes(j)[0]] for j in range(4)]
    assert sum(thetas) == 2 * sysm.nu


def test_irreducibility_cases():
    sysm, _ = sample_system("E8", seed=4)
    assert is_irreducible(sysm)
    # simultaneous block-diagonal pair is reducible
    a = np.diag([1.0, 2.0, 3.0])
    b = np.diag([5.0, 1.0, -2.0])
    assert algebra_dimension([a, b]) < 9
    blocky = [np.block([[m, np.zeros((3, 2))],
                        [np.zeros((2, 3)), np.eye(2) * k]])
              for k, m in enumerate((a, b))]
    assert algebra_dimension(blocky) < 25


def test_signature_invariance_and_shift_law():
    sysm, _ = sample_system("E6", seed=6)
    sig = signature(sysm, 3)
    rng = np.random.default_rng(8)
    for _ in range(3):
        gmat = np.eye(3) + 0.4 * (rng.standard_normal((3, 3))
                                  + 1j * rng.standard_normal((3, 3)))
        other = signature(conjugated(sysm, gmat), 3)
        assert sig.distance(other) < 1e-9
    # scalar shifts change length-1 entries by n*c, exactly in closed form
    from starweyl.weylops import tensor_shift
    shifted = signature(tensor_shift(sysm, (2, -1)), 1)
    base = signature(sysm, 1)
    assert abs(shifted.values[0] - (base.values[0] + 3 * 2)) < 1e-10
    assert abs(shifted.values[1] - (base.values[1] + 3 * (-1))) < 1e-10


def test_signature_distinguishes_central_reflection_image():
    from starweyl.weylops import central_reflection
    sysm, _ = sample_system("E6", seed=7)
    out = central_reflection(sysm)
    assert signature(out, 3).distance(signature(sysm, 3)) > 1e-3


def test_make_system_rejects_wrong_orbits():
    sysm, lam = sample_system("D4", seed=8)
    bad = [a + 0.05 * np.eye(2) for a in sysm.finite_residues]
    with pytest.raises((DegeneracyError, ValueError)):
        make_system(sysm.graph, sysm.poles, bad, lam)


def test_regular_implies_irreducible_statistics():
    # spec property: for random regular samples the residue tuple is
    # irreducible; run the full 10^3 only when STARWEYL_DEEP is set
    n = 1000 if os.environ.get("STARWEYL_DEEP") else 120
    failures = []
    for seed in range(n):
        sysm, lam = sample_system("E8", seed=seed)
        if not is_irreducible(sysm):
            failures.append(seed)
    assert not failures, f"counterexample candidates: {failures}"


# ---------------------------------------------------------------------------
# the batched Gauss-Newton fit against a per-matrix reference


def _reference_gauss_newton(gs, diags, target, tol, max_iters):
    """The trust-region Gauss-Newton fit one matrix at a time, with the
    Jacobian assembled from np.kron blocks and the minimum-norm step taken
    through its normal matrix, pinned on the scalars."""
    from starweyl.fuchsian import _fit_scale
    n = target.shape[0]
    eye = np.eye(n)
    k = len(diags)
    scale = _fit_scale(target, diags)

    def normalize_cols(g):
        norms = np.linalg.norm(g, axis=0)
        return g / np.where(norms > 0, norms, 1.0)

    def assemble(gs):
        mats = [g @ d @ np.linalg.inv(g) for g, d in zip(gs, diags)]
        return mats, sum(mats) - target

    gs = [normalize_cols(g) for g in gs]
    mats, f = assemble(gs)
    res = float(np.linalg.norm(f))
    radius = 0.5
    for _ in range(max_iters):
        if res < tol * scale:
            break
        jac = np.hstack([np.kron(eye, a.T) - np.kron(a, eye) for a in mats])
        norm2 = float(np.vdot(np.array(mats), np.array(mats)).real)
        normal = jac @ jac.conj().T + (norm2 / n) * np.outer(eye.ravel(), eye.ravel())
        x = jac.conj().T @ np.linalg.solve(normal, -f.ravel())
        nx = float(np.linalg.norm(x))
        if nx > radius:
            x = x * (radius / nx)
        xs = x.reshape(k, n, n)
        step = 1.0
        accepted = False
        for _ in range(10):
            cand = [normalize_cols((eye + step * xk) @ g) for xk, g in zip(xs, gs)]
            try:
                mats_c, f_c = assemble(cand)
            except np.linalg.LinAlgError:
                step /= 2
                continue
            res_c = float(np.linalg.norm(f_c))
            if res_c < res * (1 - 1e-4 * step):
                gs, mats, f, res = cand, mats_c, f_c, res_c
                accepted = True
                break
            step /= 2
        if accepted and step == 1.0:
            radius = min(radius * 1.6, 20.0)
        elif accepted:
            radius = max(radius * step, 1e-6)
        else:
            radius /= 3
            if radius < 1e-6:
                break
    return gs, mats, res


def _complex_normal(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


@pytest.mark.parametrize("n", (2, 3, 4, 6))
def test_batched_gauss_newton_matches_per_matrix(n):
    from starweyl.fuchsian import _tr_gauss_newton
    for seed in range(6):
        rng = np.random.default_rng([n, seed])
        k = 3 + seed % 2
        diags = [np.diag(_complex_normal(rng, n)) for _ in range(k)]
        exact = [np.eye(n) + 0.3 * _complex_normal(rng, (n, n)) for _ in range(k)]
        target = sum(g @ d @ np.linalg.inv(g) for g, d in zip(exact, diags))
        starts = [np.eye(n) + 0.5 * _complex_normal(rng, (n, n)) for _ in range(k)]
        got = _tr_gauss_newton(starts, diags, target, 2e-11, 60)
        want = _reference_gauss_newton(starts, diags, target, 2e-11, 60)
        assert isinstance(got[0], list) and isinstance(got[1], list)
        assert got[2] == want[2]
        for a, b in zip(got[0] + got[1], want[0] + want[1]):
            assert np.array_equal(a, b)


def _irreducible_tuple(rng, n, k):
    """k random complex n x n matrices: generic, so only the scalars
    commute with all of them."""
    return np.array([_complex_normal(rng, (n, n)) for _ in range(k)])


@pytest.mark.parametrize("n", (2, 3, 4, 5, 6))
def test_normal_equations_step_is_the_minimum_norm_step(n):
    """J^H y, with y solving the pinned normal equations, is lstsq's
    minimum-norm solution of J x = -vec(f), for any right-hand side f."""
    from starweyl.fuchsian import _commutator_jacobian, _pinned_normal
    for seed in range(6):
        rng = np.random.default_rng([n, seed, 1])
        mats = _irreducible_tuple(rng, n, 2 + seed % 3)
        f = _complex_normal(rng, (n, n))
        jac, normal = _pinned_normal(mats, float(np.vdot(mats, mats).real))
        got = jac.conj().T @ np.linalg.solve(normal, -f.ravel())
        want, *_ = np.linalg.lstsq(_commutator_jacobian(mats), -f.ravel(),
                                   rcond=None)
        assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)


@pytest.mark.parametrize("n", (2, 3, 4))
def test_scalar_diagonals_end_the_fit_at_the_starting_residual(n):
    """Scalar diagonals make every commutator vanish (J = 0), so the pinned
    normal matrix is singular: the fit stops where it started instead of
    raising."""
    from starweyl.fuchsian import _tr_gauss_newton
    rng = np.random.default_rng(n)
    diags = [c * np.eye(n) for c in (1.5, -0.25 + 1j, 2.0)]
    target = _complex_normal(rng, (n, n))
    start_res = float(np.linalg.norm(sum(diags) - target))
    gs, mats, res = _tr_gauss_newton([np.eye(n)] * 3, diags, target, 2e-11, 60)
    assert res == start_res
    assert all(np.array_equal(g, np.eye(n)) for g in gs)
    assert all(np.array_equal(a, d) for a, d in zip(mats, diags))


def _fraction_poly(roots):
    """Reference: the monic polynomial with the given roots by the
    Fraction recurrence p <- p * (x - r), highest degree first."""
    coeffs = [F(1)]
    for r in roots:
        nxt = [F(0)] * (len(coeffs) + 1)
        for i, c in enumerate(coeffs):
            nxt[i] = nxt[i] + c
            nxt[i + 1] = nxt[i + 1] - c * r
        coeffs = nxt
    return coeffs


_Q_ROOT = st.fractions(min_value=-50, max_value=50, max_denominator=2310)
_QI_ROOT = st.builds(GaussianRational, _Q_ROOT,
                     st.fractions(min_value=-9, max_value=9, max_denominator=30))


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_integer_target_poly_has_the_fraction_bits(data):
    """The integer kernel behind _target_poly and poly_from_roots gives
    exactly the Fraction recurrence's polynomial, and _target_poly, keyed
    on the integer multiset, its complex coefficients bit for bit (signed
    zeros too), over Q and Q(i), with repeated roots, whatever order the
    roots come in."""
    from starweyl.fuchsian import _multiset, _target_poly
    field = data.draw(st.sampled_from([_Q_ROOT, st.one_of(_Q_ROOT, _QI_ROOT)]))
    pool = data.draw(st.lists(field, min_size=1, max_size=6))
    roots = data.draw(st.lists(st.sampled_from(pool), min_size=1, max_size=9))
    shuffled = data.draw(st.permutations(roots))
    want = _fraction_poly(roots)
    got = poly_from_roots([(r, 1) for r in shuffled])
    assert list(got) == want
    assert [type(c) for c in got] == [type(c) for c in want]
    _target_poly.cache_clear()
    target, _ = _target_poly(_multiset(shuffled))
    assert np.array(target).tobytes() == \
        np.array([to_complex(c) for c in want]).tobytes()


_ENTRY = st.complex_numbers(max_magnitude=1e3, allow_nan=False,
                            allow_infinity=False)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 4).flatmap(
    lambda n: st.lists(st.lists(_ENTRY, min_size=n * n, max_size=n * n),
                       min_size=1, max_size=4)))
def test_commutator_jacobian_equals_kron_blocks(flat):
    from starweyl.fuchsian import _commutator_jacobian
    n = round(len(flat[0]) ** 0.5)
    mats = np.array(flat, dtype=complex).reshape(len(flat), n, n)
    eye = np.eye(n)
    want = np.hstack([np.kron(eye, a.T) - np.kron(a, eye) for a in mats])
    got = _commutator_jacobian(mats)
    assert got.shape == want.shape
    assert np.array_equal(got, want)


_EIGEN = st.fractions(min_value=-3, max_value=3, max_denominator=4)


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_char_poly_error_matches_flat_reference(data):
    """The orbit check takes the eigenvalue multiset in any order and
    scores it like np.poly against the exact polynomial built from
    (v, 1) roots, whether the values come shuffled or from an OrbitSpec."""
    n = data.draw(st.integers(1, 6))
    values = data.draw(st.lists(_EIGEN, min_size=n, max_size=n))
    shuffled = data.draw(st.permutations(values))
    flat = data.draw(st.lists(_ENTRY, min_size=n * n, max_size=n * n))
    a = np.array(flat, dtype=complex).reshape(n, n)
    target = np.array([to_complex(c) for c in
                       poly_from_roots([(v, 1) for v in shuffled])])
    scale = max(1.0, float(np.max(np.abs(target))))
    want = float(np.max(np.abs(np.poly(a) - target))) / scale
    room = _np_poly_room(a, want, scale)
    assert abs(char_poly_error(a, shuffled) - want) <= room
    spec = OrbitSpec(n, tuple(Counter(values).items()))
    assert abs(char_poly_error(a, spec.eigen_list()) - want) <= room


def _coefficient_room(a):
    """Rounding room between two expansions of the eigvals roots z of a
    whose sums associate differently (np.poly's, through whichever
    complex dot product numpy is linked to, and _expand's): 8 n eps times
    the coefficients of prod (x + |z|), which bound every partial sum."""
    roots = np.linalg.eigvals(np.asarray(a, dtype=complex))
    return 8 * len(roots) * np.finfo(float).eps * np.poly(-np.abs(roots)).real


def _np_poly_room(a, distance, scale):
    """Room for a char_poly_error distance against np.poly's: the
    coefficient room over the target scale, plus the rounding of the
    distance itself."""
    return (float(np.max(_coefficient_room(a))) / scale
            + 4 * np.finfo(float).eps * distance)


def _np_poly_distance(a, eigenvalues):
    """Reference of char_poly_error, np.poly against the Fraction
    polynomial of the eigenvalues, and the room (_np_poly_room) within
    which the kernel must give it."""
    target = np.array([to_complex(c) for c in
                       poly_from_roots([(v, 1) for v in eigenvalues])])
    scale = max(1.0, float(np.max(np.abs(target))))
    distance = float(np.max(np.abs(np.poly(np.asarray(a, dtype=complex))
                                   - target))) / scale
    return distance, _np_poly_room(a, distance, scale)


def _kernel_corpus(count, seed=0):
    """(matrix, exact eigenvalue list) pairs, n = 1..8: real and complex
    random matrices at scales 1e-3..1e4 (scored against random exact
    values), and conjugates of exact diagonals over Q, over Q(i) and
    closed under conjugation (scored against their own spectra)."""
    rng = np.random.default_rng(seed)
    out = []
    for k in range(count):
        n = int(rng.integers(1, 9))
        scale = 10.0 ** rng.uniform(-3, 4)
        re = [F(int(p), int(q)) for p, q in
              zip(rng.integers(-9, 10, n), rng.integers(1, 8, n))]
        kind = k % 5
        if kind < 2:
            a = rng.standard_normal((n, n))
            if kind:
                a = a + 1j * rng.standard_normal((n, n))
            out.append((a * scale, re))
            continue
        if kind == 2:
            values = re
        elif kind == 3:
            values = [GaussianRational(v, F(int(q), 3))
                      for v, q in zip(re, rng.integers(-4, 5, n))]
        else:
            half = [GaussianRational(v, F(1, 2)) for v in re[:n // 2]]
            values = half + [GaussianRational(v.re, -v.im) for v in half]
            values += re[len(values):]
        g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        d = np.diag([to_complex(v) for v in values])
        out.append((g @ d @ np.linalg.inv(g), values))
    return out


def test_expand_matches_np_poly():
    """The plain-float expansion of the eigvals roots is np.poly's
    polynomial, real where np.poly's is, to rounding: the two round the
    same sums (in the same order where numpy's complex dot product is
    OpenBLAS's, bit for bit)."""
    from starweyl.fuchsian import _expand
    for a, _ in _kernel_corpus(400):
        a = np.asarray(a, dtype=complex)
        want = np.poly(a)
        re, im = _expand(np.linalg.eigvals(a).tolist())
        got = np.array(re) if want.dtype.kind == "f" else \
            np.array(re) + 1j * np.array(im)
        assert got.dtype == want.dtype
        assert (np.abs(got - want) <= _coefficient_room(a)).all()


def test_batched_eigvals_equal_per_matrix_calls():
    corpus = _kernel_corpus(300, seed=1)
    for n in range(1, 9):
        mats = [np.asarray(a, dtype=complex) for a, _ in corpus if len(a) == n]
        batched = np.linalg.eigvals(np.array(mats))
        for a, roots in zip(mats, batched):
            assert roots.tobytes() == np.linalg.eigvals(a).tobytes()


def test_char_poly_distances_match_np_poly():
    """One _char_poly_distances call over matrices of mixed sizes gives
    each matrix np.poly's distance (to rounding), as char_poly_error does
    one at a time; a non-finite matrix scores NaN without spoiling its
    group."""
    from starweyl.fuchsian import _char_poly_distances, _multiset
    corpus = _kernel_corpus(400, seed=2)
    mats = [a for a, _ in corpus]
    keys = [_multiset(v) for _, v in corpus]
    got = _char_poly_distances(mats, keys)
    for d, (a, v) in zip(got, corpus):
        want, room = _np_poly_distance(a, v)
        assert abs(d - want) <= room
    assert [char_poly_error(a, v) for a, v in corpus] == got
    n = len(mats[0])
    broken = np.full((n, n), np.inf)
    with_broken = _char_poly_distances([broken] + mats, [keys[0]] + keys)
    assert np.isnan(with_broken[0]) and with_broken[1:] == got


def test_minpoly_error_values_unchanged():
    """minpoly_error takes its values from the integer keys; the floats,
    and so the residuals, are those of complex(value)."""
    from starweyl.fuchsian import minpoly_error

    def reference(a, eigenvalues):
        a = np.asarray(a, dtype=complex)
        vals = np.array([complex(v) for v in dict.fromkeys(eigenvalues)])
        acc = a - vals[0] * np.eye(len(a))
        for v in vals[1:]:
            acc = acc @ (a - v * np.eye(len(a)))
        return (float(np.linalg.norm(acc))
                / max(1.0, float(np.linalg.norm(a))) ** len(vals))

    for a, values in _kernel_corpus(200, seed=3):
        repeated = values + values[::2]
        assert minpoly_error(a, repeated) == reference(a, repeated)


@pytest.mark.parametrize("name", AFFINE_TYPES)
def test_verify_distances_match_np_poly(name):
    """verify() returns the worst np.poly distance of its residues (to
    rounding) on sampled systems and their central reflections."""
    from starweyl.weylops import central_reflection
    for seed in range(3):
        sysm, _ = sample_system(name, seed)
        for cur in (sysm, central_reflection(sysm)):
            want, room = max(_np_poly_distance(a, s.eigen_list())
                             for a, s in zip(cur.residues, cur.specs))
            assert abs(cur.verify() - want) <= room


def test_nan_distances_fail_the_orbit_check():
    """A polynomial that overflows (to NaN or to inf), or a non-finite
    matrix, scores NaN and fails the orbit test instead of slipping past
    every err > tol."""
    from starweyl.fuchsian import _check_orbits
    spec = OrbitSpec(2, ((F(0), 1), (F(1), 1)))
    rng = np.random.default_rng(1)
    huge = 1e200 * (rng.standard_normal((2, 2))
                    + 1j * rng.standard_normal((2, 2)))
    to_inf = np.diag([1e200, 1e200])
    assert np.isinf(np.poly(to_inf)).any() and not np.isnan(np.poly(to_inf)).any()
    for a in (huge, to_inf):
        assert np.isnan(char_poly_error(a, spec.eigen_list()))
    for a in (huge, to_inf, np.full((2, 2), np.nan)):
        with pytest.raises(DegeneracyError, match="residue is nan away"):
            _check_orbits([(np.diag([0.0, 1.0]), spec), (a, spec)],
                          1e-9, "residue")


# ---------------------------------------------------------------------------
# semisimplicity


def test_minpoly_error_tells_a_jordan_block_from_a_diagonal():
    from starweyl.fuchsian import minpoly_error
    half = F(1, 2)
    jordan = np.array([[0.5, 1.0, 0.0], [0.0, 0.5, 0.0], [0.0, 0.0, -2.0]])
    diagonal = np.diag([0.5, 0.5, -2.0])
    for a in (jordan, diagonal):
        # the characteristic polynomial cannot tell them apart
        assert char_poly_error(a, [half, half, F(-2)]) < 1e-15
    assert minpoly_error(diagonal, [half, half, F(-2)]) == 0.0
    assert minpoly_error(diagonal, [half, F(-2)]) == 0.0  # repeats collapse
    assert minpoly_error(jordan, [half, half, F(-2)]) > 0.1


def test_orbit_test_rejects_a_jordan_block_on_a_value_listed_twice():
    """orbit_from_leg lists 0, -1, 0: three listed values, as many as the
    size, yet only two distinct ones, so the Jordan block on 0 must meet
    the minimal-polynomial test."""
    from starweyl.fuchsian import _check_orbits
    spec = orbit_from_leg(3, (2, 1), (1, -1))
    assert spec.values == (0, -1, 0) and spec.width == spec.size
    jordan = np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, -1.0]])
    assert _check_orbits([(np.diag([0.0, 0.0, -1.0]), spec)], 1e-9, "x") == 0.0
    with pytest.raises(DegeneracyError, match=r"not semisimple .*5\.00e-01"):
        _check_orbits([(jordan, spec)], 1e-9, "residue")


def test_verify_rejects_a_jordan_block_with_the_right_char_poly():
    """D4 with lam_1 = 0: residue 1 must be 0 (the double eigenvalue 0,
    semisimple), and the nilpotent Jordan block has the same
    characteristic polynomial.  The other residues are exact: A_2 and A_3
    triangular with eigenvalues (0, -lam_j), and the closing residue has
    trace -lam_4 (level zero) and determinant 0 by the choice of t."""
    from starweyl.dynkin import ParamVector
    from starweyl.fuchsian import FuchsianSystem
    g = StarGraph.affine("D4")
    l2, l3, l4 = F(1, 3), F(1, 5), F(1, 7)
    nu = -(l2 + l3 + l4) / 2
    lam = ParamVector((nu, F(0), l2, l3, l4))
    t = (nu + l2) * (nu + l3)
    jordan = np.array([[0, 1], [0, 0]], dtype=complex)
    a2 = np.diag([-to_complex(l2), 0])
    a3 = np.array([[0, 0], [to_complex(t), -to_complex(l3)]])
    poles = (0.0, -1.0, 1.0)
    finite = [jordan, a2, a3]
    sysj = FuchsianSystem(g, poles, finite, lam, (F(0),) * 4)
    assert sysj.nu == nu
    # every residue has the predicted characteristic polynomial ...
    assert max(char_poly_error(a, s.eigen_list())
               for a, s in zip(sysj.residues, sysj.specs)) < 1e-15
    # ... and residue 1 is still not in its orbit
    with pytest.raises(DegeneracyError, match="not semisimple"):
        sysj.verify()
    with pytest.raises(DegeneracyError, match="not semisimple"):
        make_system(g, poles, finite, lam)


def test_orbit_check_needs_the_char_poly_beyond_minpoly_and_trace():
    """diag(0,0,0,2/3,2/3,2/3) against the E8 spec (0, 1/3, 2/3), each
    twice: semisimple with eigenvalues among the spec's (minimal-polynomial
    residual 0) and the same trace, yet another orbit.  Only the
    characteristic-polynomial distance sees it, so that check stays."""
    from starweyl.fuchsian import _check_orbits, minpoly_error
    spec = OrbitSpec(6, ((F(0), 2), (F(1, 3), 2), (F(2, 3), 2)))
    a = np.diag([0, 0, 0, 2 / 3, 2 / 3, 2 / 3]).astype(complex)
    assert minpoly_error(a, spec.values) == 0.0
    assert np.trace(a) == pytest.approx(to_complex(spec.trace()), abs=1e-15)
    assert char_poly_error(a, spec.eigen_list()) == pytest.approx(2 / 27)
    with pytest.raises(DegeneracyError, match="7.41e-02 away from its orbit"):
        _check_orbits([(a, spec)], 1e-9, "residue 0")


# ---------------------------------------------------------------------------
# balancing


def _tuple_norm2(sysm):
    return sum(float(np.linalg.norm(a)) ** 2 for a in sysm.residues)


def _random_gauge(n, seed):
    rng = np.random.default_rng(seed)
    return rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))


@functools.cache
def _sampled(name, seed):
    return sample_system(name, seed)[0]


_SAMPLED = st.tuples(st.sampled_from(("D4", "E6", "E7")), st.integers(0, 3))


def test_newton_direction_is_half_the_hermitian_least_squares_fit():
    """Reference: the fit of sum ||A_k + [S, A_k]||^2 over a real basis
    of the Hermitian matrices, by lstsq on the stacked commutators."""
    from starweyl.fuchsian import _moment_map, _newton_direction
    rng = np.random.default_rng(4)
    for n, k in ((2, 4), (3, 3), (6, 3)):
        mats = rng.standard_normal((k, n, n)) + 1j * rng.standard_normal((k, n, n))
        basis = []
        for i in range(n):
            for j in range(i, n):
                e = np.zeros((n, n), dtype=complex)
                e[i, j] = e[j, i] = 1
                basis.append(e)
                if i != j:
                    e = np.zeros((n, n), dtype=complex)
                    e[i, j], e[j, i] = 1j, -1j
                    basis.append(e)
        cols = np.array([np.concatenate([(s @ a - a @ s).ravel() for a in mats])
                         for s in basis]).T
        rhs = -mats.reshape(-1)
        real = np.vstack([cols.real, cols.imag])
        coef, *_ = np.linalg.lstsq(real, np.concatenate([rhs.real, rhs.imag]),
                                   rcond=None)
        fit = sum(c * s for c, s in zip(coef, basis))
        fit -= np.trace(fit) / n * np.eye(n)   # the scalars do not move A
        moment, norm2 = _moment_map(mats)
        got = _newton_direction(mats, moment, norm2)
        assert np.allclose(got, fit / 2, atol=1e-10 * max(1.0, np.abs(fit).max()))


@settings(max_examples=12, deadline=None)
@given(_SAMPLED, st.integers(0, 2 ** 16))
def test_balance_properties(sampled, gauge_seed):
    from starweyl.fuchsian import _moment_map, balance
    from starweyl.tolerances import BALANCE_TOL
    sysm = conjugated(_sampled(*sampled), _random_gauge(_sampled(*sampled).n,
                                                       gauge_seed))
    bal = balance(sysm)
    # never raises the norm, and meets its stopping test
    assert _tuple_norm2(bal) <= _tuple_norm2(sysm)
    moment, norm2 = _moment_map(np.array(bal.residues))
    assert np.linalg.norm(moment) <= BALANCE_TOL * norm2
    # idempotent
    assert balance(bal) is bal
    # the exact data and the conjugation invariants stay
    assert bal.lam is sysm.lam and bal.offsets == sysm.offsets
    assert bal.specs == sysm.specs
    assert signature(bal).distance(signature(sysm)) < 1e-9
    bal.verify()
    # the balanced norm does not depend on the gauge of the input
    ref = balance(_sampled(*sampled))
    assert _tuple_norm2(bal) == pytest.approx(_tuple_norm2(ref), rel=1e-2)
