"""Hypothesis profiles and hand-built systems shared by test files.

HYPOTHESIS_PROFILE=ci (set in CI) draws the same examples on every run
and prints the reproduction blob of a failure, so a red CI run replays
locally with the same environment variable.  Without it the default
profile applies.
"""

import functools
import os
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import settings

from starweyl.dynkin import ParamVector, StarGraph
from starweyl.fuchsian import (
    DEFAULT_POLES,
    _fit_orbit_sum,
    make_system,
    predicted_specs,
    random_regular_lam,
)
from starweyl.ratlin import GaussianRational, to_complex

settings.register_profile("ci", derandomize=True, print_blob=True)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))


def _fit_system(g: StarGraph, lam: ParamVector):
    """A system with parameters lam whose residue at infinity is diagonal,
    the finite residues fitted to the complementary sum."""
    specs = predicted_specs(g, lam)
    n = g.delta[g.center]
    pinned = np.diag(specs[-1].eigen_complex())
    fitted = _fit_orbit_sum(to_complex(lam[g.center]) * np.eye(n) - pinned,
                            specs[:-1], np.random.default_rng(0))
    assert fitted is not None, "orbit-sum fit failed"
    return make_system(g, DEFAULT_POLES[g.num_legs], fitted, lam)


@functools.cache
def _qi_d4():
    g = StarGraph.affine("D4")
    vals = list(random_regular_lam(g, random.Random(1)).values)
    # opposite imaginary parts on two nodes of equal weight keep level zero
    vals[1] += GaussianRational(0, Fraction(1, 7))
    vals[2] += GaussianRational(0, Fraction(-1, 7))
    return _fit_system(g, ParamVector(tuple(vals)))


@pytest.fixture
def qi_d4_system():
    """A D4 system whose lam has non-real entries (field Q(i))."""
    return _qi_d4()


@functools.cache
def _closure_start(name: str, node: int):
    """A system on the closure where lam[node] = 0: the two eigenvalues
    that node separates merge into one listed value of the orbit spec."""
    g = StarGraph.affine(name)
    vals = list(random_regular_lam(g, random.Random(3)).values)
    vals[node] = Fraction(0)
    c = g.center
    vals[c] = -sum(g.delta[j] * v for j, v in enumerate(vals) if j != c) / g.delta[c]
    return _fit_system(g, ParamVector(tuple(vals)))


@pytest.fixture
def closure_system():
    """closure_system(name, node): a system of the given type with
    lam[node] = 0."""
    return _closure_start
