"""Projection and proximal operators for the shipped constraint sets.

Every projection here is the exact Euclidean projection, so it is idempotent
and nonexpansive.  Indicator-function prox maps ignore the stepsize.  Each
factory (and ``SpectralBox.indicator``) returns a :class:`~adgd.core.ProxFriendly`
whose ``cost`` declares the essential operations one application triggers (one
eigendecomposition for the spectral box, one SVD for the nuclear ball, and so on).
"""

from __future__ import annotations

import numpy as np

from .core import NumericalError, ProxFriendly

# how far below zero an orthant coordinate may sit and still count as feasible
FEAS_TOL = 1e-9


def project_nonneg(z: np.ndarray) -> np.ndarray:
    """Componentwise projection onto the nonnegative orthant."""
    return np.maximum(np.asarray(z, dtype=np.float64), 0.0)


def project_l1_ball(v: np.ndarray, r: float) -> np.ndarray:
    """Euclidean projection onto the l1-ball of radius ``r``.

    Sort-based soft threshold: magnitudes above the cumulative-sum threshold
    shrink by it, the rest vanish.  Feasible inputs are returned unchanged.
    """
    if r <= 0:
        raise ValueError("l1-ball radius must be positive")
    v = np.asarray(v, dtype=np.float64)
    a = np.abs(v)
    if a.sum() <= r:
        return v.copy()
    tau = _simplex_threshold(a, r)
    return np.sign(v) * np.maximum(a - tau, 0.0)


def _simplex_threshold(a: np.ndarray, r: float) -> float:
    # standard cumulative-sum rule on the sorted magnitudes; caller
    # guarantees sum(a) > r so rho is well defined
    u = np.sort(a)[::-1]
    css = np.cumsum(u)
    ks = np.arange(1, u.size + 1)
    rho = np.nonzero(u - (css - r) / ks > 0)[0][-1]
    return (css[rho] - r) / (rho + 1.0)


def project_affine(z: np.ndarray, A: np.ndarray, b: np.ndarray, pinv=None) -> np.ndarray:
    """Projection z - A^+ (Az - b) onto {x : Ax = b} for full-row-rank A (m <= n).

    ``pinv`` caches ``affine_pinv(A)``; pass it when projecting many times
    against the same constraints.
    """
    z = np.asarray(z, dtype=np.float64)
    if pinv is None:
        pinv = affine_pinv(A)
    return z - pinv @ (A @ z - b)


def affine_pinv(A: np.ndarray) -> np.ndarray:
    """A^+ = A^T (A A^T)^-1 = Q R^-T from a QR of A^T; raises on rank deficiency."""
    Q, R = np.linalg.qr(A.T)
    d = np.abs(np.diag(R))
    if A.shape[0] > A.shape[1] or d.min() <= max(A.shape) * np.finfo(float).eps * d.max():
        raise NumericalError("A is rank-deficient (no projection onto Ax = b)")
    return np.linalg.solve(R, Q.T).T


def project_spectral_box(Z: np.ndarray, l: float, u: float) -> np.ndarray:
    """Projection of a symmetric matrix onto {X : l I <= X <= u I}.

    The input is symmetrized first; asymmetry beyond 1e-8 relative is an
    error, since that indicates corrupted data rather than rounding noise.
    """
    Q, c = _eigh_clip(np.asarray(Z, dtype=np.float64), l, u)
    return (Q * c) @ Q.T


def _eigh_clip(Z: np.ndarray, l: float, u: float):
    """(Q, c) with the box projection of Z equal to Q diag(c) Q'."""
    if not (0 < l < u):
        raise ValueError("spectral box requires 0 < l < u")
    asym = np.max(np.abs(Z - Z.T))
    if asym > 1e-8 * (1.0 + np.max(np.abs(Z))):
        raise ValueError(f"input is not symmetric (asymmetry {asym:.3e})")
    w, Q = np.linalg.eigh(0.5 * (Z + Z.T))
    return Q, np.clip(w, l, u)


def project_nuclear_ball(Z: np.ndarray, r: float) -> np.ndarray:
    """Projection onto {X : ||X||_* <= r} via singular value shrinkage.

    The singular values (a nonnegative vector) are projected onto the l1-ball
    of radius ``r``; feasible inputs come back unchanged.
    """
    if r <= 0:
        raise ValueError("nuclear-ball radius must be positive")
    Z = np.asarray(Z, dtype=np.float64)
    U, s, Vt = np.linalg.svd(Z, full_matrices=False)
    if s.sum() <= r:
        return Z.copy()
    shrunk = np.maximum(s - _simplex_threshold(s, r), 0.0)
    return (U * shrunk) @ Vt


# ---------------------------------------------------------------------------
# ProxFriendly factories (flattened-point interface used by the solvers)
# ---------------------------------------------------------------------------

def nonneg_indicator() -> ProxFriendly:
    """Indicator of the nonnegative orthant."""

    def value(x):
        return 0.0 if np.min(x, initial=0.0) >= -FEAS_TOL else np.inf

    return ProxFriendly(
        value=value,
        prox=lambda alpha, z: project_nonneg(z),
        name="nonneg",
        cost={"projection_count": 1},
    )


def affine_indicator(A: np.ndarray, b: np.ndarray) -> ProxFriendly:
    """Indicator of {x : Ax = b} with A^+ computed once."""
    A = np.asarray(A, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64).ravel()
    pinv = affine_pinv(A)
    A.flags.writeable = False
    b.flags.writeable = False
    tol = 1e-8 * (1.0 + np.linalg.norm(b))

    def value(x):
        return 0.0 if np.linalg.norm(A @ x - b) <= tol else np.inf

    return ProxFriendly(
        value=value,
        prox=lambda alpha, z: project_affine(z, A, b, pinv),
        name="affine",
        cost={"projection_count": 1},
    )


class SpectralBox:
    """Indicator of {X symmetric : l I <= X <= u I} on row-major flattened X.

    The last prox output ``x`` is read-only and kept with its factorization
    X = Q diag(c) Q': ``value`` is 0 there with no decomposition, and a smooth
    part may reuse ``Q`` and ``c``.  Other points, copies too, get the full test.
    """

    def __init__(self, n: int, l: float, u: float):
        self.n, self.l, self.u = n, l, u
        self.x = self.Q = self.c = None

    def prox(self, alpha, z):
        Q, c = _eigh_clip(z.reshape(self.n, self.n), self.l, self.u)
        x = ((Q * c) @ Q.T).ravel()
        x.flags.writeable = False
        self.x, self.Q, self.c = x, Q, c
        return x

    def value(self, x):
        if x is self.x:
            return 0.0
        X = x.reshape(self.n, self.n)
        w = np.linalg.eigvalsh(0.5 * (X + X.T))
        slack = 1e-8 * (1 + self.u)
        return 0.0 if w[0] >= self.l - slack and w[-1] <= self.u + slack else np.inf

    def indicator(self) -> ProxFriendly:
        return ProxFriendly(value=self.value, prox=self.prox, name="spectral_box",
                            cost={"eig_count": 1, "projection_count": 1})


def nuclear_ball_indicator(shape: tuple, r: float) -> ProxFriendly:
    """Indicator of {X : ||X||_* <= r} on row-major flattened X.  The last prox
    output is read-only, and ``value`` is 0 there with no SVD."""
    m, n = shape
    last = None

    def value(x):
        if x is last:
            return 0.0
        s = np.linalg.svd(x.reshape(m, n), compute_uv=False)
        return 0.0 if s.sum() <= r * (1 + 1e-8) + 1e-8 else np.inf

    def prox(alpha, z):
        nonlocal last
        last = project_nuclear_ball(z.reshape(m, n), r).ravel()
        last.flags.writeable = False
        return last

    return ProxFriendly(value=value, prox=prox, name="nuclear_ball",
                        cost={"svd_count": 1, "projection_count": 1})


def dual_entropy_domain(m: int) -> ProxFriendly:
    """Indicator of {(lam, mu) : lam >= 0}; mu (the last coordinate) is free."""

    def value(x):
        return 0.0 if np.min(x[:m], initial=0.0) >= -FEAS_TOL else np.inf

    return ProxFriendly(
        value=value,
        prox=lambda alpha, z: prox_dual_entropy_domain(z, m),
        name="dual_entropy_domain",
        cost={"projection_count": 1},
    )


def prox_dual_entropy_domain(z: np.ndarray, m: int) -> np.ndarray:
    """Clamp the leading m coordinates at zero, leave the multiplier free."""
    out = np.array(z, dtype=np.float64)
    out[:m] = np.maximum(out[:m], 0.0)
    return out
