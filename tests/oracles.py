"""Independent brute-force oracles shared by unit and acceptance tests."""

import numpy as np

from adgd.core import NumericalError, SmoothFunction


def finite_difference_gradient(f: SmoothFunction, x, h=None) -> np.ndarray:
    """Central-difference gradient estimate, componentwise.

    With ``h=None`` each coordinate uses the relative step 1e-6 * (1 + |x_i|).
    """
    x = np.asarray(x, dtype=np.float64).ravel()
    f.check_dim(x)
    out = np.empty_like(x)
    for i in range(x.size):
        hi = h if h is not None else 1e-6 * (1.0 + abs(x[i]))
        e = np.zeros_like(x)
        e[i] = hi
        fp = f.value(x + e)
        fm = f.value(x - e)
        if not (np.isfinite(fp) and np.isfinite(fm)):
            raise NumericalError(f"non-finite value in finite difference at coordinate {i}")
        out[i] = (fp - fm) / (2.0 * hi)
    return out


def as_point(x) -> np.ndarray:
    """Return ``x`` as a 1-d float64 array, validating finiteness."""
    p = np.asarray(x, dtype=np.float64).ravel()
    if not np.all(np.isfinite(p)):
        raise NumericalError("point has non-finite entries")
    return p


def cocoercivity_gap(f: SmoothFunction, x, y, lipschitz: float) -> float:
    """<grad f(y) - grad f(x), y - x> - ||grad f(y) - grad f(x)||^2 / L.

    Nonnegative for convex L-smooth f.
    """
    x = as_point(x)
    y = as_point(y)
    dg = f.gradient(y) - f.gradient(x)
    return float(np.dot(dg, y - x) - np.dot(dg, dg) / lipschitz)


def recover_subgradient(x_next, x_curr, grad_curr, alpha: float) -> np.ndarray:
    """Subgradient of g at x_next implied by the proximal step.

    From x_next = prox_{alpha g}(x_curr - alpha grad_curr):
    v = (x_curr - x_next)/alpha - grad_curr lies in the subdifferential of g
    at x_next by the prox optimality condition.
    """
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    return (np.asarray(x_curr) - np.asarray(x_next)) / alpha - np.asarray(grad_curr)


def curvature_estimate(x_curr, x_prev, grad_curr, grad_prev) -> float:
    """||grad difference|| / ||point difference||; zero if gradients agree.

    The norms are ``np.linalg.norm``'s, which the iteration loop's ``_norm``
    matches bit for bit wherever the squared norm does not overflow.
    """
    dx = np.linalg.norm(np.subtract(x_curr, x_prev, dtype=np.float64))
    return float(np.linalg.norm(np.subtract(grad_curr, grad_prev, dtype=np.float64)) / dx)


def l1_project_bisect(v, r):
    """Solve the soft-threshold equation by bisection (sort-free route)."""
    v = np.asarray(v, dtype=float)
    a = np.abs(v)
    if a.sum() <= r:
        return v.copy()
    lo, hi = 0.0, float(a.max())
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if np.maximum(a - mid, 0.0).sum() > r:
            lo = mid
        else:
            hi = mid
    tau = 0.5 * (lo + hi)
    return np.sign(v) * np.maximum(a - tau, 0.0)


def l1_project_scan(v, r):
    """Exhaustive threshold scan over every candidate support size."""
    v = np.asarray(v, dtype=float)
    a = np.abs(v)
    if a.sum() <= r:
        return v.copy()
    u = np.sort(a)[::-1]
    css = np.cumsum(u)
    tau = None
    for j in range(u.size):
        cand = (css[j] - r) / (j + 1)
        upper = u[j]
        lower = u[j + 1] if j + 1 < u.size else 0.0
        if lower <= cand <= upper + 1e-15:
            tau = cand
            break
    assert tau is not None
    return np.sign(v) * np.maximum(a - tau, 0.0)


def nuclear_project_scan(Z, r):
    U, s, Vt = np.linalg.svd(Z, full_matrices=False)
    return (U * l1_project_scan(s, r)) @ Vt
