import functools
import itertools
import random
import re
from dataclasses import replace
from fractions import Fraction as F
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from starweyl.dynkin import (
    AFFINE_TYPES,
    ParamVector,
    StarGraph,
    enumerate_roots,
    reflect_param,
    root_pairing,
    weight_lattice_member,
)
from starweyl.errors import DegeneracyError
from starweyl.fuchsian import (
    conjugated,
    minpoly_error,
    normalize,
    sample_system,
    signature,
)
from starweyl.quiver import AlmostAffineQuiver, IncrementedQuiver
from starweyl.tolerances import MINPOLY_TOL, ORBIT_TOL
from starweyl.weylops import (
    IncrementedPair,
    apply_word,
    central_reflection,
    dp_orbit,
    leg_reflection,
    lift,
    light_translation_basis,
    project,
    relabel_legs,
    scalar_shift,
    tensor_shift,
    translate,
)


def block_signature(pair, length=3):
    import itertools
    mats = [pair.q[:, sl] @ pair.p[sl, :] for sl in pair.block_slices()]
    vals = []
    for l in range(1, length + 1):
        for w in itertools.product(range(len(mats)), repeat=l):
            acc = mats[w[0]]
            for i in w[1:]:
                acc = acc @ mats[i]
            vals.append(complex(np.trace(acc)))
    return np.array(vals)


@pytest.mark.parametrize("name", AFFINE_TYPES)
def test_lift_block_structure(name):
    sysm, lam = sample_system(name, seed=2)
    pair = lift(sysm)
    n_big = pair.inc.big_n
    assert sum(pair.inc.block_sizes) == n_big
    # QP = diag(sum of finite residues, 0)
    qp = pair.qp
    top = sum(sysm.finite_residues)
    assert np.linalg.norm(qp[:sysm.n, :sysm.n] - top) < 1e-9 * max(
        1.0, np.linalg.norm(top))
    assert np.linalg.norm(qp[sysm.n:, :]) < 1e-12
    assert np.linalg.norm(qp[:, sysm.n:]) < 1e-12
    assert pair.verify() < 1e-9


def test_lift_rejects_zero_residue():
    sysm, lam = sample_system("D4", seed=2)
    finite = [a.copy() for a in sysm.finite_residues]
    finite[0] = np.zeros_like(finite[0])
    broken = sysm.with_residues(finite, verify=False)
    with pytest.raises(DegeneracyError):
        lift(broken)


def test_scalar_shift_spectra_and_parameters():
    sysm, lam = sample_system("E6", seed=5)
    pair = lift(sysm)
    # Lambda = 0 keeps the GIT point: block signatures agree
    pair0 = scalar_shift(pair, F(0))
    assert np.max(np.abs(block_signature(pair) - block_signature(pair0))) < 1e-9
    # eigenvalues of QP shift by Lambda
    shift = F(3, 7)
    moved = scalar_shift(pair, shift)
    e_old = np.sort_complex(np.linalg.eigvals(pair.qp))
    e_new = np.sort_complex(np.linalg.eigvals(moved.qp))
    assert np.max(np.abs(e_new - e_old - complex(float(shift)))) < 1e-9
    # the parameter effect is the scalar-shift map, exactly
    from starweyl.quiver import shift_params
    assert moved.lam_plus.values == shift_params(pair.inc, pair.lam_plus,
                                                 shift).values


def test_project_round_trip_signature():
    sysm, lam = sample_system("E7", seed=5)
    sys0 = normalize(sysm, "det_zero")
    pair = lift(sys0)
    back = project(scalar_shift(scalar_shift(pair, F(-2, 3)), F(2, 3)))
    assert signature(back, 4).distance(signature(sys0, 4)) < 1e-8


def test_relabel_first_two_keeps_every_orbit_key():
    """The swap reorders the full leg's eigenvalues, but neither any
    piece's eigenvalue multiset nor the order of a repeated spec's values:
    the orbit test of the relabelled pair reads what the lifted pair's
    read."""
    from starweyl import weylops
    from starweyl.quiver import permute_params
    for name in AFFINE_TYPES:
        for seed in range(30):
            pair = lift(normalize(sample_system(name, seed)[0], "det_zero"))
            out = replace(pair, lam_plus=permute_params(pair.inc,
                                                        pair.lam_plus))
            assert weylops._orbit_keys(out) == weylops._orbit_keys(pair)


def test_relabel_first_two_verifies_where_the_keys_differ(monkeypatch):
    from starweyl import weylops
    verify = IncrementedPair.verify
    calls = []

    def spy(pair):
        calls.append(pair)
        return verify(pair)

    pair = lift(normalize(sample_system("E6", 0)[0], "det_zero"))
    monkeypatch.setattr(IncrementedPair, "verify", spy)
    weylops.relabel_first_two(pair)
    assert calls == []
    monkeypatch.setattr(weylops, "_orbit_keys", lambda p: [id(p)])
    out = weylops.relabel_first_two(pair)
    assert len(calls) == 1 and calls[0] is out


def test_project_requires_simple_zero():
    # engineered wall: the big-orbit spectrum acquires a double zero
    inc = IncrementedQuiver(AlmostAffineQuiver.affine("D4"))
    g = inc.graph
    vals = [F(0)] * g.node_count
    full = g.leg_nodes(inc.full_leg)
    vals[full[0]], vals[full[1]] = F(1), F(-1)
    legs = [g.leg_nodes(j)[0] for j in range(3)]
    vals[legs[2]] = F(-1)
    lam_plus = ParamVector(tuple(vals))
    assert lam_plus.level(inc.dims) == 0
    pair = IncrementedPair(inc, lam_plus, np.zeros((3, 3), dtype=complex),
                           np.eye(3), (0.0, -1.0, 1.0))
    with pytest.raises(DegeneracyError):
        project(pair)


@pytest.mark.parametrize("name", AFFINE_TYPES)
def test_central_reflection_parameter_track(name):
    sysm, lam = sample_system(name, seed=3)
    out = central_reflection(sysm)
    g = sysm.graph
    assert out.lam.values == reflect_param(g, g.center, lam).values
    assert out.verify() < 1e-8
    again = central_reflection(out)
    assert signature(again, 4).distance(signature(sysm, 4)) < 1e-6


def test_central_reflection_rejects_nu_zero():
    sysm, lam = sample_system("D4", seed=4)
    vals = list(lam.values)
    # force the centre to zero while keeping level zero: move the weight
    # onto a leg node
    vals[0] = F(0)
    vals[1] = vals[1] + 2 * lam[0]
    lam0 = ParamVector(tuple(vals))
    assert lam0.is_level_zero(sysm.graph.delta)
    broken = sysm.with_residues(sysm.finite_residues, lam=lam0, verify=False)
    assert broken.nu == 0
    with pytest.raises(DegeneracyError):
        central_reflection(broken)


def test_pvi_theta_shift():
    sysm, lam = sample_system("D4", seed=11)
    g = sysm.graph
    legs = [g.leg_nodes(j)[0] for j in range(4)]
    thetas = [-lam[k] for k in legs]
    nu = sum(thetas) / 2
    out = central_reflection(sysm)
    assert [-out.lam[k] for k in legs] == [t - nu for t in thetas]


@pytest.mark.parametrize("name", AFFINE_TYPES)
def test_leg_reflection_involution_and_track(name):
    sysm, lam = sample_system(name, seed=7)
    g = sysm.graph
    for node in range(1, g.node_count):
        out = leg_reflection(sysm, node)
        assert out.lam.values == reflect_param(g, node, lam).values
        out.verify()
        back = leg_reflection(out, node)
        assert signature(back, 3).distance(signature(sysm, 3)) < 1e-12


def test_leg_reflection_matrix_behaviour():
    sysm, lam = sample_system("E8", seed=7)
    g = sysm.graph
    # interior node: matrices bitwise unchanged
    interior = g.leg_nodes(2)[1]
    out = leg_reflection(sysm, interior)
    assert all((a == b).all() for a, b in zip(out.residues, sysm.residues))
    # node adjacent to the centre: that residue is shifted by a scalar
    adjacent = g.leg_nodes(2)[0]
    spec = sysm.specs[2]
    out = leg_reflection(sysm, adjacent)
    shift = spec.values[1]
    want = sysm.residues[2] - complex(shift) * np.eye(sysm.n)
    assert np.linalg.norm(out.residues[2] - want) < 1e-9
    assert out.nu == sysm.nu - shift


def test_tensor_shift_freedom():
    sysm, lam = sample_system("D4", seed=2)
    out = tensor_shift(sysm, (1, 0, 0))
    # lam is normalisation-independent: the induced translation vanishes
    assert out.lam.values == lam.values
    theta1 = sysm.specs[0].values[1]
    assert out.specs[0].values == (F(1), theta1 + 1)
    assert out.specs[3].values[0] == F(-1)
    back = normalize(out, "det_zero")
    assert signature(back, 3).distance(signature(sysm, 3)) < 1e-12
    # identity at c = 0
    assert tensor_shift(sysm, (0, 0, 0)).specs == sysm.specs


def test_central_reflection_commutes_with_tensor_shift():
    # the lam-level commutation law is trivial (the tensor shift acts by
    # the zero lattice vector); on matrices both orders give the same
    # det-zero GIT point
    sysm, lam = sample_system("E6", seed=9)
    a = central_reflection(tensor_shift(sysm, (1, -2)))
    b = central_reflection(sysm)
    assert a.lam.values == b.lam.values
    assert signature(a, 4).distance(signature(b, 4)) < 1e-6


@pytest.mark.parametrize("name", ("D4", "E6", "E7"))
def test_schlesinger_step_and_inverse(name):
    # one elementary move (_unit_move) raises slot 1 at infinity and lowers
    # a simple finite slot; the opposite move undoes it
    from starweyl.fuchsian import char_poly_error
    from starweyl.weylops import _unit_move
    sysm, _ = sample_system(name, seed=13)
    specs, inf = sysm.specs, sysm.m - 1
    pj = next(p for p in range(inf) if 1 in specs[p].mults)
    sl = specs[pj].mults.index(1)
    up_val, down_val = specs[inf].values[1], specs[pj].values[sl]
    rng = np.random.default_rng(0)
    moved = _unit_move(list(sysm.finite_residues), sysm.poles, sysm.nu, inf,
                       up_val, pj, down_val, rng)
    stepped = sysm.with_residues(moved, verify=False)
    dtr = np.trace(stepped.residues[inf]) - np.trace(sysm.residues[inf])
    assert abs(dtr - 1) < 1e-9
    values = [list(spec.eigen_list()) for spec in specs]
    for p, old, new in ((inf, up_val, up_val + 1), (pj, down_val, down_val - 1)):
        values[p][values[p].index(old)] = new
    assert max(map(char_poly_error, stepped.residues, values)) <= 1e-9
    back = _unit_move(moved, sysm.poles, sysm.nu, pj, down_val - 1, inf,
                      up_val + 1, rng)
    back = sysm.with_residues(back)
    assert signature(back, 4).distance(signature(sysm, 4)) < 1e-8


@pytest.mark.parametrize("name", AFFINE_TYPES)
def test_translate_basis_round_trips(name):
    sysm, lam = sample_system(name, seed=17)
    basis = light_translation_basis(sysm.graph)
    for mu in basis[:5]:
        out = translate(sysm, mu)
        assert out.lam.values == (lam + mu).values
        assert out.verify() < 1e-8
        back = translate(out, mu.scale(-1))
        assert signature(back, 4).distance(signature(sysm, 4)) < 1e-8


def test_translate_rejects_bad_mu():
    sysm, _ = sample_system("D4", seed=1)
    with pytest.raises(ValueError):
        translate(sysm, ParamVector((F(1, 2),) + (F(0),) * 4))


def test_dp_orbit_march():
    sysm, lam = sample_system("E7", seed=23)
    mu = light_translation_basis(sysm.graph)[0]
    rows = dp_orbit(sysm, mu, 12)
    for k, lam_k, sig_k in rows:
        assert lam_k.values == (lam + mu.scale(k)).values
    sigs = [r[2] for r in rows]
    assert all(sigs[k].distance(sigs[k + 1]) > 1e-6 for k in range(12))


def test_braid_relations_on_signatures():
    # (r_i r_j)^m = id holds on the matrix track up to conjugation
    sysm, _ = sample_system("E6", seed=10)
    g = sysm.graph
    adjacent = g.leg_nodes(0)[0]
    far = g.leg_nodes(1)[1]
    base = signature(sysm, 3)

    cur = sysm
    for _ in range(3):  # centre and adjacent node are joined: order 3
        cur = leg_reflection(central_reflection(cur), adjacent)
    assert signature(cur, 3).distance(base) < 1e-5

    cur = sysm
    for _ in range(2):  # centre and a far node commute: order 2
        cur = leg_reflection(central_reflection(cur), far)
    assert signature(cur, 3).distance(base) < 1e-5


def test_relabel_legs_and_word_application():
    sysm, lam = sample_system("D4", seed=6)
    word = (("relabel", (1, 0, 2, 3)), ("leg", 1), ("tensor", (0, 1, 0)))
    out = apply_word(sysm, word)
    out.verify()
    # relabelling twice with the same transposition undoes itself
    again = relabel_legs(relabel_legs(sysm, (1, 0, 2, 3)), (1, 0, 2, 3))
    assert signature(again, 3).distance(signature(sysm, 3)) < 1e-12
    with pytest.raises(DegeneracyError):
        relabel_legs(sysm, (3, 1, 2, 0))  # moving the infinity leg


@pytest.mark.parametrize("name", AFFINE_TYPES)
def test_operations_preserve_scalar_sum_and_irreducibility(name):
    from starweyl.fuchsian import is_irreducible
    sysm, lam = sample_system(name, seed=19)
    mu = light_translation_basis(sysm.graph)[0]
    outs = [central_reflection(sysm), leg_reflection(sysm, 1),
            tensor_shift(sysm, (1,) + (0,) * (sysm.m - 2)),
            translate(sysm, mu)]
    for out in outs:
        total = sum(out.residues) - complex(out.nu) * np.eye(out.n)
        scale = sum(np.linalg.norm(a) for a in out.residues)
        assert np.linalg.norm(total) < 1e-10 * max(1.0, scale)
        assert is_irreducible(out)


# ---------------------------------------------------------------------------
# the translate plans against a reference that runs every plan from scratch


PARKED = []  # (up pole, auxiliary pole) of every move _reference_run parks


def _reference_run(sys0, shifts):
    """One plan from scratch: pair the pending moves in lexicographic order
    and execute each one as soon as it is chosen."""
    from starweyl.ratlin import poly_from_roots, to_complex
    from starweyl.weylops import _polish_residues, _unit_move
    specs = sys0.specs
    values, targets = [], []
    for p in range(sys0.m):
        vals = list(specs[p].eigen_list())
        values.append(vals)
        targets.append([v + d for v, d in zip(vals, shifts[p])])
    rng = np.random.default_rng(1)
    finite = list(sys0.finite_residues)
    inf = sys0.m - 1
    nu_eye = complex(sys0.nu) * np.eye(sys0.n)
    while True:
        ups = [(p, c) for p in range(sys0.m)
               for c, (v, t) in enumerate(zip(values[p], targets[p])) if t > v]
        downs = [(p, c) for p in range(sys0.m)
                 for c, (v, t) in enumerate(zip(values[p], targets[p])) if t < v]
        if not ups and not downs:
            return finite
        assert ups and downs
        pair = next(((u, d) for u in ups for d in downs if u[0] != d[0]), None)
        if pair is not None:
            (pu, cu), (pd, cd) = pair
        else:
            # park one exponent of an auxiliary pole one step down
            (pu, cu) = ups[0]
            pd = next(p for p in range(sys0.m) if p != pu)
            cd = next(c for c, v in enumerate(values[pd])
                      if v - 1 not in set(values[pd]))
            PARKED.append((pu, pd))
        finite = _unit_move(finite, sys0.poles, sys0.nu, pu, values[pu][cu],
                            pd, values[pd][cd], rng)
        values[pu][cu] += 1
        values[pd][cd] -= 1

        def poly_error(a, vals):
            target = np.array([to_complex(c) for c in
                               poly_from_roots([(v, 1) for v in vals])])
            scale = max(1.0, float(np.max(np.abs(target))))
            return float(np.max(np.abs(np.poly(a) - target))) / scale

        def drift(fin):
            a_m = nu_eye - sum(fin)
            return max(poly_error(a_m if p == inf else fin[p], values[p])
                       for p in range(sys0.m))

        err = drift(finite)
        if err > 1e-9:
            finite = _polish_residues(finite, values, sys0.nu)
            err = drift(finite)
        if err > 5e-7:
            raise DegeneracyError(f"intermediate orbit drift {err:.2e}")


def _reference_translate(sys, mu):
    from starweyl.fuchsian import FuchsianSystem, balance, predicted_specs
    from starweyl.weylops import _plan_moves, _polish_residues
    sys0 = balance(normalize(sys, "det_zero"))
    lam_new, plans = _plan_moves(sys0, mu)
    for shifts, consts in plans:
        offsets = tuple(F(c) for c in consts)
        target_values = [s.eigen_list() for s in
                         predicted_specs(sys0.graph, lam_new, offsets)]
        try:
            finite = _polish_residues(_reference_run(sys0, shifts),
                                      target_values, sys0.nu)
            out = FuchsianSystem(sys0.graph, sys0.poles, finite, lam_new,
                                 offsets, sys0.tol)
            out.verify()
            return normalize(out, "det_zero")
        except DegeneracyError:
            pass
    raise DegeneracyError("reference plans failed")


# D4 23/0 runs past step 24, where a guard stricter than DRIFT_GUARD would
# change the winning plan.  A vector is a light-basis index or the finite
# coordinates of a level-zero vector; no light-basis orbit parks, while
# plan 0 of E6 seed 0 along (0,-1,0,0,0,-1) does.
@pytest.mark.parametrize("name, seed, vector, steps",
                         [("D4", 23, 0, 30), ("E6", 23, 3, 3),
                          ("E6", 0, (0, -1, 0, 0, 0, -1), 3)])
def test_translate_matches_from_scratch_ladder(name, seed, vector, steps):
    sysm, _ = sample_system(name, seed)
    g = sysm.graph
    if isinstance(vector, int):
        mu = light_translation_basis(g)[vector]
    else:
        mu = ParamVector(tuple(map(F, vector)) + (F(g.extending_entry(vector)),))
    cur = ref = replace(sysm, tol=max(sysm.tol, 1e-8))
    PARKED.clear()
    for _ in range(steps):
        cur = translate(cur, mu)
        ref = _reference_translate(ref, mu)
        assert cur.lam.values == ref.lam.values
        assert cur.offsets == ref.offsets
        for a, b in zip(cur.residues, ref.residues):
            assert np.array_equal(a, b)
    assert PARKED or isinstance(vector, int), "the parking input did not park"


def _unit_vector(g, node, sign):
    coords = [sign if k == node else 0 for k in g.finite_nodes]
    return ParamVector(tuple(F(c) for c in coords) + (F(-g.delta[node] * sign),))


def test_translate_runs_each_sequence_once(monkeypatch):
    from starweyl import weylops
    run_moves = weylops._run_moves
    runs = []

    def spy(sys0, shifts):
        assert shifts not in runs, "a plan ran twice"
        runs.append(shifts)
        assert len(runs) <= weylops._PLANS
        return run_moves(sys0, shifts)

    monkeypatch.setattr(weylops, "_run_moves", spy)
    # E8 seed 3 +e_4 fails its first plan and wins on the second
    sysm, lam = sample_system("E8", 3)
    mu = _unit_vector(sysm.graph, 4, 1)
    assert translate(sysm, mu).lam.values == (lam + mu).values
    assert len(runs) == 2
    sysm, lam = sample_system("D4", 23)
    mu = light_translation_basis(sysm.graph)[0]
    cur = replace(sysm, tol=max(sysm.tol, 1e-8))
    for _ in range(5):
        runs.clear()
        cur = translate(cur, mu)
        assert len(runs) == 1
    assert cur.lam.values == (lam + mu.scale(5)).values


def test_translate_failure_names_the_ladder(monkeypatch):
    from starweyl import weylops

    def wall(*args):
        raise DegeneracyError("eigenvector pairing is degenerate (w.v = 0)")

    monkeypatch.setattr(weylops, "_unit_move", wall)
    sysm, _ = sample_system("E6", 23)
    mu = light_translation_basis(sysm.graph)[3]
    with pytest.raises(DegeneracyError) as info:
        translate(sysm, mu)
    msg = str(info.value)
    assert msg.startswith("translation failed for every move plan "
                          "(3 plans run; last plan constants (")
    assert "guard" not in msg
    assert msg.endswith("last: eigenvector pairing is degenerate (w.v = 0))")


def test_failed_re_anchoring_raises_and_names_its_residual(monkeypatch):
    from starweyl import weylops
    sysm, _ = sample_system("E6", 23)
    values = [s.eigen_list() for s in sysm.specs]
    # a NaN residual fails like one above the goal
    for residual, spelled in ((0.5, r"5\.00e-01"), (float("nan"), "nan")):
        def stuck(gs, diags, target, tol, max_iters, res=residual):
            return gs, gs, res

        monkeypatch.setattr(weylops, "_tr_gauss_newton", stuck)
        with pytest.raises(DegeneracyError,
                           match=rf"^re-anchoring residual {spelled} above "):
            weylops._polish_residues(sysm.finite_residues, values, sysm.nu)
        with pytest.raises(DegeneracyError) as info:
            translate(sysm, light_translation_basis(sysm.graph)[3])
        msg = str(info.value)
        assert msg.startswith("translation failed for every move plan "
                              "(3 plans run")
        assert re.search(rf"last: re-anchoring residual {spelled} above "
                         r"[0-9.e+-]+\)$", msg), msg


def test_a_nan_drift_fails_the_guard(monkeypatch):
    """Non-finite matrices after a move have a NaN drift: nothing to
    re-anchor, and the guard rejects it."""
    from starweyl import weylops

    def overflow(finite, *args):
        return [np.full_like(a, np.nan) for a in finite]

    monkeypatch.setattr(weylops, "_unit_move", overflow)
    sysm, _ = sample_system("E6", 23)
    with pytest.raises(DegeneracyError,
                       match=r"last: intermediate orbit drift nan\)$"):
        translate(sysm, light_translation_basis(sysm.graph)[3])


def test_dp_orbit_failure_names_step_and_pairing(monkeypatch):
    from starweyl import weylops
    real_translate = weylops.translate
    calls = 0

    def wall(*args):
        raise DegeneracyError("eigenvector pairing is degenerate (w.v = 0)")

    def third_step_hits_wall(sys, mu):
        nonlocal calls
        calls += 1
        if calls == 3:
            monkeypatch.setattr(weylops, "_unit_move", wall)
        return real_translate(sys, mu)

    monkeypatch.setattr(weylops, "translate", third_step_hits_wall)
    sysm, lam = sample_system("E6", 23)
    mu = light_translation_basis(sysm.graph)[3]
    with pytest.raises(DegeneracyError) as info:
        dp_orbit(sysm, mu, 5)
    target = lam + mu.scale(3)
    near = min(abs(complex(root_pairing(r, target)))
               for r in enumerate_roots(sysm.graph))
    msg = str(info.value)
    assert msg.startswith(f"orbit step 3 failed (target lam's smallest "
                          f"|root pairing| {near:.3g}): translation failed "
                          f"for every move plan (3 plans run; ")
    assert msg.endswith("last: eigenvector pairing is degenerate (w.v = 0))")


# ---------------------------------------------------------------------------
# balancing before the moves: seeds whose orbits went wrong unbalanced


@functools.cache
def _d4_23_step6():
    sysm, _ = sample_system("D4", 23)
    mu = light_translation_basis(sysm.graph)[0]
    cur = replace(sysm, tol=max(sysm.tol, ORBIT_TOL))
    for _ in range(6):
        cur = translate(cur, mu)
    return cur, mu


# unbalanced, step 7 of D4 23/0 needed the looser drift guards and left
# the orbit: the round trip missed by a signature distance of about 1 and
# conjugated starts landed 7-9 apart
def test_translate_round_trip_returns_to_the_start_on_d4_23():
    x6, mu = _d4_23_step6()
    back = translate(translate(x6, mu), mu.scale(-1))
    assert back.lam.values == x6.lam.values
    assert signature(back).distance(signature(x6)) < 1e-8


def test_translate_does_not_depend_on_the_gauge_on_d4_23():
    x6, mu = _d4_23_step6()
    x7 = translate(x6, mu)
    rng = np.random.default_rng(7)
    for _ in range(3):
        g = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        y = translate(conjugated(x6, g), mu)
        assert y.lam.values == x7.lam.values
        assert signature(y).distance(signature(x7)) < 1e-8


# unbalanced, E7 3/2 raised at step 5, E8 2/2 at step 4, and E8 11/0 (the
# orbit of criterion 10) went non-semisimple after steps 21 and 22
@pytest.mark.parametrize("name, seed, vector, steps",
                         [("E7", 3, 2, 8), ("E8", 2, 2, 4), ("E8", 11, 0, 22)])
def test_orbits_that_failed_unbalanced_stay_semisimple(name, seed, vector, steps):
    sysm, lam = sample_system(name, seed)
    mu = light_translation_basis(sysm.graph)[vector]
    cur = replace(sysm, tol=max(sysm.tol, ORBIT_TOL))
    for k in range(1, steps + 1):
        cur = translate(cur, mu)
        assert cur.lam.values == (lam + mu.scale(k)).values
        assert max(minpoly_error(a, s.values)
                   for a, s in zip(cur.residues, cur.specs)) <= MINPOLY_TOL


# heavy unit translates: some (E8 seed 3 +e_4 and seed 6 -e_0 among them)
# fail on their first plan and need a later ranked one
def test_e8_unit_translates_finish_semisimple():
    for seed in range(8):
        sysm, lam = sample_system("E8", seed)
        for node, sign in itertools.product(sysm.graph.finite_nodes, (1, -1)):
            mu = _unit_vector(sysm.graph, node, sign)
            out = translate(sysm, mu)
            assert out.lam.values == (lam + mu).values, (seed, node, sign)
            out.verify()  # raises on a non-semisimple residue


# ---------------------------------------------------------------------------
# elementary moves on every pole pair; translations off the generic real case


@pytest.mark.parametrize("name, seed", [("D4", 4), ("E8", 2)])
def test_unit_move_is_the_rank_one_gauge_for_every_pole_pair(name, seed):
    from starweyl.fuchsian import closing_residue
    from starweyl.ratlin import to_complex
    from starweyl.weylops import _best_projector, _unit_move
    sysm, _ = sample_system(name, seed)
    finite, poles, nu = list(sysm.finite_residues), sysm.poles, sysm.nu
    inf = len(poles)
    eye = np.eye(sysm.n)
    rng = np.random.default_rng(0)
    for up, down in itertools.permutations(range(sysm.m), 2):
        up_val, down_val = sysm.specs[up].values[-1], sysm.specs[down].values[0]
        new = _unit_move(finite, poles, nu, up, up_val, down, down_val,
                         np.random.default_rng(1))
        mats = finite + [closing_residue(finite, nu)]
        pi = _best_projector(mats[up], to_complex(up_val), mats[down],
                             to_complex(down_val))
        scale = max(float(np.linalg.norm(a)) for a in new)
        for _ in range(3):
            z = complex(rng.uniform(-3, 3), rng.uniform(0.5, 2))
            # G(z) = I + (f(z) - 1) pi and its derivative f'(z) pi, per case
            if up == inf:
                f, df = 1 / (z - poles[down]), -1 / (z - poles[down]) ** 2
            elif down == inf:
                f, df = z - poles[up], 1.0
            else:
                f = (z - poles[up]) / (z - poles[down])
                df = (poles[up] - poles[down]) / (z - poles[down]) ** 2
            g_inv = np.linalg.inv(eye + (f - 1) * pi)
            a_z = sum(a / (z - p) for a, p in zip(finite, poles))
            want = (eye + (f - 1) * pi) @ a_z @ g_inv + df * pi @ g_inv
            got = sum(a / (z - p) for a, p in zip(new, poles))
            assert np.linalg.norm(got - want) < 1e-9 * max(1.0, scale), (up, down)
        moved = new + [closing_residue(new, nu)]
        for p, val in ((up, up_val + 1), (down, down_val - 1)):
            smallest = np.linalg.svd(moved[p] - to_complex(val) * eye,
                                     compute_uv=False)[-1]
            assert smallest < 1e-9 * max(1.0, scale), (up, down, p)


def test_translate_acts_on_qi_parameters(qi_d4_system):
    sysm = qi_d4_system
    assert sysm.lam.field == "Qi"
    mu = light_translation_basis(sysm.graph)[0]
    cur = sysm
    for k in range(1, 6):
        cur = translate(cur, mu)
        assert cur.lam.values == (sysm.lam + mu.scale(k)).values
        assert cur.verify() < 1e-8


# a zero leg parameter merges two eigenvalues into one listed value of the
# spec; the light vectors that keep that node at zero stay on the closure
@pytest.mark.parametrize("name, node, vectors",
                         [("E7", 5, [3, 4]), ("E8", 4, [0, 5, 6])])
def test_translate_from_a_closure_start(closure_system, name, node, vectors):
    sysm = closure_system(name, node)
    g = sysm.graph
    leg, _ = g.leg_of(node)
    assert sysm.specs[leg].width == len(g.leg_nodes(leg))  # one merged value
    basis = light_translation_basis(g)
    assert [i for i, mu in enumerate(basis) if mu[node] == 0] == vectors
    for i in vectors:
        out = translate(sysm, basis[i])
        assert out.lam.values == (sysm.lam + basis[i]).values
        assert out.verify() < 1e-8


# ---------------------------------------------------------------------------
# the light translation basis and its offset scorer


def _reference_offset_candidates(t_shifts, mults, mu_c, keep=3):
    """Brute-force ranking: re-sums every pole's up and down counts for
    each choice of constants."""
    m = len(t_shifts)
    bound = max(abs(mu_c), max((abs(x) for row in t_shifts for x in row),
                               default=0)) + 1

    def cost(cs):
        per_up, per_dn = [], []
        for p in range(m):
            u = sum(mm * max(t + cs[p], 0)
                    for t, mm in zip(t_shifts[p], mults[p]))
            d = sum(mm * max(-(t + cs[p]), 0)
                    for t, mm in zip(t_shifts[p], mults[p]))
            per_up.append(u)
            per_dn.append(d)
        half = sum(per_up)
        forced = max((per_up[p] + per_dn[p] - half for p in range(m)),
                     default=0)
        return (max(forced, 0), half)

    scored = []
    for head in itertools.product(range(-bound, bound + 1), repeat=m - 1):
        last = -mu_c - sum(head)
        if abs(last) > bound:
            continue
        cs = tuple(head) + (last,)
        scored.append((cost(cs), cs))
    scored.sort()
    return scored[:keep]


def _basis_candidates(g):
    return [c for c in itertools.product((-1, 0, 1), repeat=len(g.finite_nodes))
            if any(c) and abs(sum(g.delta[i] * x
                                  for i, x in zip(g.finite_nodes, c))) <= 2]


LIGHT_BASES = {
    "D4": [(-1, 0, 0, 1), (-1, 0, 1, 0), (-1, 0, 1, 1), (-1, 1, 0, 0)],
    "E6": [(-1, 0, 0, 0, 1, 1), (-1, 0, 0, 1, -1, 1), (-1, 0, 0, 1, 0, 0),
           (-1, 0, 0, 1, 0, 1), (-1, 0, 1, 0, 0, 1), (-1, 1, -1, 0, 0, 1)],
    "E7": [(-1, 0, 0, 0, 1, 1, 0), (-1, 0, 0, 1, -1, 1, 0),
           (-1, 0, 1, -1, 0, 1, 0), (-1, 0, 1, 0, 0, 0, 0),
           (-1, 0, 1, 0, 0, 0, 1), (0, 0, -1, 0, 0, 1, 0),
           (-1, -1, 1, 0, 0, 1, 0)],
    "E8": [(-1, 0, 0, 1, 0, 1, 0, 0), (-1, 0, 0, 1, 1, -1, 1, 0),
           (-1, 0, 0, 1, 1, 0, -1, 1), (-1, 0, 0, 1, 1, 0, 0, -1),
           (-1, 0, 0, 1, 1, 0, 0, 0), (-1, 0, 1, -1, 0, 1, 0, 0),
           (-1, 0, 1, 0, 0, 0, 0, 0), (-1, -1, 0, 0, 1, 1, 0, 0)],
}


@pytest.mark.parametrize("name", AFFINE_TYPES)
def test_light_translation_basis_is_pinned(name):
    g = StarGraph.affine(name)
    basis = light_translation_basis(g)
    assert [tuple(int(x) for x in v.values[:-1]) for v in basis] == LIGHT_BASES[name]
    for v in basis:
        assert weight_lattice_member(g, v)


@st.composite
def _profiles(draw):
    m = draw(st.sampled_from((3, 4)))
    t_shifts = draw(st.lists(st.lists(st.integers(-5, 5), min_size=1,
                                      max_size=4), min_size=m, max_size=m))
    mults = [draw(st.lists(st.integers(1, 3), min_size=len(row),
                           max_size=len(row))) for row in t_shifts]
    return t_shifts, mults, draw(st.integers(-5, 5))


@settings(max_examples=150, deadline=None)
@given(_profiles())
def test_offset_candidates_match_brute_force(profile):
    from starweyl.weylops import _PLANS, _ranked_offsets
    t_shifts, mults, mu_c = profile
    got = _ranked_offsets.__wrapped__(t_shifts, mults, mu_c)
    assert list(got) == _reference_offset_candidates(t_shifts, mults, mu_c,
                                                     _PLANS)
    assert all(type(x) is int for cost, cs in got for x in cost + cs)


@settings(max_examples=50, deadline=None)
@given(_profiles(), st.integers(8, 256))
def test_offset_candidates_in_small_blocks_match_brute_force(profile, block):
    # a single-vector ranking spans several key blocks only for large
    # shifts; small blocks exercise the merge across blocks
    from starweyl import weylops
    t_shifts, mults, mu_c = profile
    with mock.patch.object(weylops, "_KEY_BLOCK", block):
        got = weylops._ranked_offsets.__wrapped__(t_shifts, mults, mu_c)
    assert list(got) == _reference_offset_candidates(t_shifts, mults, mu_c,
                                                     weylops._PLANS)


@pytest.mark.parametrize("name", AFFINE_TYPES)
def test_batched_min_costs_match_brute_force(name):
    from starweyl.weylops import _min_offset_costs, _move_profile
    g = StarGraph.affine(name)
    coords = _basis_candidates(g)
    expected = []
    for c in coords:
        mu_c, t_shifts, mults = _move_profile(g, c)
        expected.append(
            _reference_offset_candidates(t_shifts, mults, mu_c, keep=1)[0][0])
    assert _min_offset_costs(g, coords) == expected
