"""Projection properties over whole input classes, drawn by hypothesis.

The references lean on these projections: the spectral box (mle), the
nuclear ball (lrmc), the nonnegative orthant (nmf), the affine set (curve)
and the dual-entropy domain.  For every drawn set, points z and w, and a
feasible y = P(v), the projection must be idempotent and nonexpansive, and
P(z) must satisfy <z - P(z), y - P(z)> <= 0.  Tolerances scale with the
size of the points, since every check is exact up to rounding.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from adgd.prox import (
    project_affine,
    project_nonneg,
    project_nuclear_ball,
    project_spectral_box,
    prox_dual_entropy_domain,
)

ENTRY = st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False)
PROPERTY_SETTINGS = settings(max_examples=60, deadline=None, derandomize=True, database=None)


def _points(draw, shape, symmetric=False):
    points = [draw(hnp.arrays(np.float64, shape, elements=ENTRY)) for _ in range(3)]
    return [0.5 * (p + p.T) for p in points] if symmetric else points


@st.composite
def spectral_box(draw):
    n = draw(st.integers(1, 5))
    l = draw(st.floats(1e-3, 10.0))
    u = l + draw(st.floats(1e-3, 100.0))
    return (lambda Z: project_spectral_box(Z, l, u)), _points(draw, (n, n), symmetric=True)


@st.composite
def nuclear_ball(draw):
    shape = (draw(st.integers(1, 4)), draw(st.integers(1, 4)))
    r = draw(st.floats(1e-2, 1e3))
    return (lambda Z: project_nuclear_ball(Z, r)), _points(draw, shape)


@st.composite
def nonneg(draw):
    return project_nonneg, _points(draw, draw(st.integers(1, 10)))


@st.composite
def affine(draw):
    n = draw(st.integers(2, 8))
    m = draw(st.integers(1, n - 1))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    A = rng.normal(size=(m, n))
    b = A @ rng.normal(size=n)
    return (lambda z: project_affine(z, A, b)), _points(draw, n)


@st.composite
def dual_entropy_domain(draw):
    m = draw(st.integers(1, 8))
    return (lambda z: prox_dual_entropy_domain(z, m)), _points(draw, m + 1)


@pytest.mark.parametrize("sets", [spectral_box, nuclear_ball, nonneg, affine,
                                  dual_entropy_domain], ids=lambda s: s.__name__)
def test_projection_properties(sets):
    @PROPERTY_SETTINGS
    @given(sets())
    def check(drawn):
        P, (z, w, v) = drawn
        pz, pw, y = P(z), P(w), P(v)
        scale = 1.0 + np.linalg.norm(z) + np.linalg.norm(w) + np.linalg.norm(v)
        assert np.linalg.norm(P(pz) - pz) <= 1e-12 * scale
        assert np.linalg.norm(pz - pw) <= np.linalg.norm(z - w) + 1e-12 * scale
        assert np.sum((z - pz) * (y - pz)) <= 1e-12 * scale ** 2

    check()
