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

import adgd.prox
from adgd.prox import (
    SpectralBox,
    nonneg_indicator,
    orthonormal_diag,
    project_affine,
    project_nonneg,
    project_nuclear_ball,
    project_spectral_box,
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
    return (lambda z: nonneg_indicator(m).prox(1.0, z)), _points(draw, m + 1)


def _check_projection(P, z, w, v):
    pz, pw, y = P(z), P(w), P(v)
    scale = 1.0 + np.linalg.norm(z) + np.linalg.norm(w) + np.linalg.norm(v)
    assert np.linalg.norm(P(pz) - pz) <= 1e-12 * scale
    assert np.linalg.norm(pz - pw) <= np.linalg.norm(z - w) + 1e-12 * scale
    assert np.sum((z - pz) * (y - pz)) <= 1e-12 * scale ** 2
    return pz, scale


@pytest.mark.parametrize("sets", [spectral_box, nuclear_ball, nonneg, affine,
                                  dual_entropy_domain], ids=lambda s: s.__name__)
def test_projection_properties(sets):
    @PROPERTY_SETTINGS
    @given(sets())
    def check(drawn):
        P, points = drawn
        _check_projection(P, *points)

    check()


def test_warm_started_spectral_box_properties(monkeypatch):
    """The box prox offered the eigenbasis of a perturbed input, Z + eps E
    with eps up to 1e-2 relative, is a projection, and it agrees with the
    LAPACK path within 1e-12 * scale whether or not the basis certified."""
    certified = []
    certify = adgd.prox.certify_eigh

    def counted(Z, Q, gram_diag):
        found = certify(Z, Q, gram_diag)
        certified.append(found is not None)
        return found

    monkeypatch.setattr(adgd.prox, "certify_eigh", counted)

    @PROPERTY_SETTINGS
    @given(st.integers(1, 8), st.floats(1e-3, 10.0), st.floats(1e-3, 100.0),
           st.one_of(st.just(0.0), st.integers(-16, -2).map(lambda k: 10.0 ** k)),
           st.integers(0, 2 ** 32 - 1), st.data())
    def check(n, l, width, eps, seed, data):
        rng = np.random.default_rng(seed)
        box = SpectralBox(n, l, l + width)
        points = [rng.normal(size=(n, n)) * 10.0 ** data.draw(st.integers(-2, 3))
                  for _ in range(3)]
        points = [0.5 * (p + p.T) for p in points]

        def P(Z):
            E = rng.normal(size=(n, n))
            basis = np.linalg.eigh(Z + eps * np.max(np.abs(Z)) * (E + E.T))[1]
            d = orthonormal_diag(basis)
            if d is None:   # not offered, and counted as not certified
                certified.append(False)
            box.warm = None if d is None else (basis, d)
            return box.prox(1.0, Z.ravel()).reshape(n, n)

        pz, scale = _check_projection(P, *points)
        assert np.max(np.abs(pz - project_spectral_box(points[0], l, l + width))) <= 1e-12 * scale

    check()
    assert sum(certified) >= len(certified) // 4


def _asymmetric_by_the_guard(Z):
    """The spectral box's symmetry guard in full: asym > 1e-8 (1 + max|Z|)."""
    with np.errstate(invalid="ignore"):
        asym = np.max(np.abs(Z - Z.T))
        return bool(asym > 1e-8 * (1.0 + np.max(np.abs(Z))))


def _lapack_box(Z, l, u):
    w, Q = np.linalg.eigh(0.5 * (Z + Z.T))
    return (Q * np.clip(w, l, u)) @ Q.T


def test_spectral_box_symmetry_guard_decides_as_its_expression(monkeypatch):
    """``project_spectral_box`` raises exactly when asym > 1e-8 (1 + max|Z|)
    says so, for Z + t E with E antisymmetric, t from 1e-10 to 1e-6 relative
    and scales 1e-3 to 1e3; an input with a NaN or an inf takes LAPACK, also
    in a box offered a warm basis."""
    calls = []
    monkeypatch.setattr(adgd.prox, "certify_eigh", lambda *a: calls.append(a))

    @settings(PROPERTY_SETTINGS, max_examples=200)
    @given(st.integers(1, 6), st.integers(-3, 3), st.floats(-10.0, -6.0),
           st.sampled_from([None, None, None, np.nan, np.inf, -np.inf]), st.booleans(),
           st.integers(0, 2 ** 32 - 1))
    def check(n, scale, log_t, bad, mirrored, seed):
        rng = np.random.default_rng(seed)
        M, A = rng.normal(size=(n, n)), rng.normal(size=(n, n))
        Z = 10.0 ** scale * (M + M.T)
        Z = Z + 10.0 ** log_t * np.max(np.abs(Z)) * (A - A.T)
        if bad is not None:
            i, j = rng.integers(n, size=2)
            Z[i, j] = bad
            if mirrored:
                Z[j, i] = bad
        expected = _asymmetric_by_the_guard(Z)
        try:
            with np.errstate(invalid="ignore"):
                out = project_spectral_box(Z, 0.1, 10.0)
        except np.linalg.LinAlgError:   # LAPACK may raise on a non-finite input
            assert bad is not None and not expected
            return
        except ValueError as exc:
            assert expected and "not symmetric" in str(exc)
            return
        assert not expected
        if bad is not None:
            with np.errstate(invalid="ignore"):
                assert np.array_equal(out, _lapack_box(Z, 0.1, 10.0), equal_nan=True)
            box = SpectralBox(n, 0.1, 10.0)
            box.warm = (np.eye(n), orthonormal_diag(np.eye(n)))
            with np.errstate(invalid="ignore"):
                assert np.array_equal(box.prox(1.0, Z.ravel()).reshape(n, n), out,
                                      equal_nan=True)
            assert not calls

    check()
