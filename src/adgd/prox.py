"""Projection and proximal operators for the shipped constraint sets.

Every projection here is the exact Euclidean projection to working precision,
so it is idempotent and nonexpansive up to rounding.  For the spectral box that
precision is certified: a warm basis, the eigenbasis of the last factorization,
is kept only under an explicit a-posteriori bound, else LAPACK factors the input.
The bound's orthogonality half depends on the basis alone, so ``SpectralBox``
tests it once per basis and keeps diag(Q'Q) for the other half.
Indicator-function prox maps ignore the stepsize.  Each factory (and
``SpectralBox.indicator``) returns a :class:`~adgd.core.ProxFriendly` whose
``cost`` declares the essential operations one application triggers (one
eigendecomposition for the spectral box, one SVD for the nuclear ball, and so on).
"""

from __future__ import annotations

import numpy as np

from .core import NumericalError, ProxFriendly

# how far below zero an orthant coordinate may sit and still count as feasible
FEAS_TOL = 1e-9

_max = np.maximum.reduce   # what ndarray.max calls, without its Python wrappers


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


def _eigh_clip(Z: np.ndarray, l: float, u: float, warm=None):
    """(Q, c) with Z = Q diag(w) Q' and its box projection Q diag(c) Q'.

    ``warm``, a pair (Q, diag(Q'Q)) of a basis offered for Z that passed
    ``orthonormal_diag``, is kept when ``certify_eigh`` passes it; without
    one, or when it does not certify, LAPACK factors Z.
    """
    if not (0 < l < u):
        raise ValueError("spectral box requires 0 < l < u")
    D = Z - Z.T
    asym = _max(np.abs(D, out=D), axis=None)
    # 1e-8 * (1 + max|Z|) is at least 1e-8, so below that the scale cannot matter
    if asym > 1e-8 and asym > 1e-8 * (1.0 + _max(np.abs(Z), axis=None)):
        raise ValueError(f"input is not symmetric (asymmetry {asym:.3e})")
    Zs = Z + Z.T
    Zs *= 0.5
    # a NaN or an inf anywhere in Z makes asym NaN or inf
    found = certify_eigh(Zs, *warm) if warm is not None and asym < np.inf else None
    w, Q = np.linalg.eigh(Zs) if found is None else found
    return Q, np.minimum(np.maximum(w, l), u)   # np.clip's bits, without its wrapper


EPS = np.finfo(np.float64).eps
# the certificate: max|Q'Q - I| and max|Z Q - Q diag(w)| / max|w| both at
# most CERT_TOL * n * eps
CERT_TOL = 8.0


def orthonormal_diag(Q: np.ndarray):
    """diag(Q'Q) when the orthogonality half of the certificate,
    max|Q'Q - I| <= CERT_TOL * n * eps, passes Q, else None (also on NaN)."""
    n = Q.shape[0]
    G = Q.T @ Q
    d = G.diagonal().copy()
    G.flat[::n + 1] -= 1.0
    return d if abs(G).max() <= CERT_TOL * n * EPS else None


def certify_eigh(Z: np.ndarray, Q: np.ndarray, gram_diag: np.ndarray):
    """Eigenpairs (w, Q) of symmetric Z from the basis Q, with w its Rayleigh
    quotients, or None when they do not certify.

    ``gram_diag`` is diag(Q'Q) as ``orthonormal_diag(Q)`` returned it: Q passed
    the orthogonality half, which depends on Q alone, and this tests the rest.
    The certificate bounds the backward error of Q diag(w) Q' as a
    factorization of Z, and the box projection is 1-Lipschitz, so it needs no
    eigenvalue gaps: repeated eigenvalues certify too.  Every test fails on NaN.
    """
    tol = CERT_TOL * Z.shape[0] * EPS
    ZQ = Z @ Q
    w = np.einsum("ij,ij->j", Q, ZQ) / gram_diag
    ZQ -= Q * w
    if _max(np.abs(ZQ, out=ZQ), axis=None) <= tol * _max(np.abs(w)) < np.inf:
        return w, Q
    return None


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

def _indicator(project, feasible, cost: dict) -> ProxFriendly:
    """Indicator of {x : feasible(x)} whose prox is ``project(z)``.  The last
    prox output is read-only, and ``value`` is 0 there with no test."""
    last = None

    def value(x):
        return 0.0 if x is last or feasible(x) else np.inf

    def prox(alpha, z):
        nonlocal last
        last = project(z)
        last.setflags(False)   # write=False, at a fifth of the flags attribute's cost
        return last

    return ProxFriendly(value=value, prox=prox, cost=cost)


def nonneg_indicator(m=None) -> ProxFriendly:
    """Indicator of {x : x[:m] >= 0}: the nonnegative orthant when ``m`` is
    None, else the coordinates past the leading m are free."""

    def project(z):
        out = project_nonneg(z)
        if m is not None:
            out[m:] = z[m:]
        return out

    return _indicator(project, lambda x: np.min(x[:m], initial=0.0) >= -FEAS_TOL,
                      {"projection_count": 1})


def affine_indicator(A: np.ndarray, b: np.ndarray) -> ProxFriendly:
    """Indicator of {x : Ax = b} with A^+ computed once."""
    A = np.asarray(A, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64).ravel()
    pinv = affine_pinv(A)
    A.flags.writeable = False
    b.flags.writeable = False
    tol = 1e-8 * (1.0 + np.linalg.norm(b))
    return _indicator(lambda z: project_affine(z, A, b, pinv),
                      lambda x: np.linalg.norm(A @ x - b) <= tol, {"projection_count": 1})


class SpectralBox:
    """Indicator of {X symmetric : l I <= X <= u I} on row-major flattened X.

    The last prox output ``x`` is kept with its factorization X = Q diag(c) Q',
    all three read-only (a basis a caller offered through ``warm`` becomes
    read-only when the box keeps it): ``value`` is 0 there with no
    decomposition, and a smooth part may reuse ``Q`` and ``c``.  Other points,
    copies too, get the full test.

    ``arm(x)`` tells whether ``x`` is the last prox output.  If it is, ``warm``
    becomes the pair (Q, diag(Q'Q)), or None when Q fails ``orthonormal_diag``;
    a Q that passed is not tested again.  A prox keeps the offered basis, with
    its diagonal, only if ``certify_eigh`` passes it; else LAPACK factors anew.
    A smooth part calls ``arm`` from its gradient: every step starts with the
    gradient at its point, and every run with the gradient at a fresh copy of
    x^0, so a warm basis never outlives its run.
    """

    def __init__(self, n: int, l: float, u: float):
        self.n, self.l, self.u = n, l, u
        self.x = self.Q = self.c = self.warm = None
        self._diag = None   # diag(Q'Q) once Q passed the orthogonality test

    def arm(self, x) -> bool:
        at_x = x is self.x
        if at_x and self._diag is None:
            self._diag = orthonormal_diag(self.Q)
        self.warm = (self.Q, self._diag) if at_x and self._diag is not None else None
        return at_x

    def prox(self, alpha, z):
        warm = self.warm
        Q, c = _eigh_clip(z.reshape(self.n, self.n), self.l, self.u, warm)
        x = ((Q * c) @ Q.T).ravel()
        for a in (x, Q, c):
            a.setflags(write=False)
        self.x, self.Q, self.c = x, Q, c
        self._diag = warm[1] if warm is not None and Q is warm[0] else None
        return x

    def value(self, x):
        if x is self.x:
            return 0.0
        X = x.reshape(self.n, self.n)
        w = np.linalg.eigvalsh(0.5 * (X + X.T))
        slack = 1e-8 * (1 + self.u)
        return 0.0 if w[0] >= self.l - slack and w[-1] <= self.u + slack else np.inf

    def indicator(self) -> ProxFriendly:
        return ProxFriendly(value=self.value, prox=self.prox,
                            cost={"eig_count": 1, "projection_count": 1})


def nuclear_ball_indicator(shape: tuple, r: float) -> ProxFriendly:
    """Indicator of {X : ||X||_* <= r} on row-major flattened X; ``value`` takes
    no SVD at the last prox output."""
    m, n = shape
    return _indicator(lambda z: project_nuclear_ball(z.reshape(m, n), r).ravel(),
                      lambda x: np.linalg.svd(x.reshape(m, n), compute_uv=False).sum()
                      <= r * (1 + 1e-8) + 1e-8,
                      {"svd_count": 1, "projection_count": 1})
