"""Independent correctness oracles for the five experiment problems.

Each oracle rebuilds an instance's data from its generator seed with plain
numpy/scipy, repeating the generator's random draws, and computes the
optimal value by a method of its own:

- mle: the closed-form optimum of -log det X + tr(XY) over l I <= X <= u I;
- lrmc: an own projected-gradient solve, certified by the Frank-Wolfe gap;
- curve: a null-space BFGS solve polished by Newton steps;
- dual_entropy: an L-BFGS-B solve, certified by the duality gap at the
  recovered primal point;
- nmf: the optimum 0 that the generator builds in.

Nothing here imports ``adgd.prox``, ``adgd.diagnostics`` or
``adgd.reference``; the program's instances are only evaluated at x0 to
confirm that the rebuilt data is the program's data.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
import scipy.linalg
import scipy.optimize
from scipy.special import logsumexp

DESK = {
    "mle": {"n": 50, "l": 0.1, "u": 10.0, "M": 50},
    "lrmc": {"n": 60, "r": 10, "fraction": 0.2},
    "curve": {"m": 20, "n": 100},
    "nmf": {"n": 60, "r": 10},
    "dual_entropy": {"m": 100, "n": 50},
}


@dataclass
class Oracle:
    """Rebuilt objective, feasibility test and optimal-value bracket."""

    kind: str
    F: Callable[[np.ndarray], float]            # f + g on feasible points
    grad: Callable[[np.ndarray], np.ndarray]    # gradient of the smooth part
    infeasibility: Callable[[np.ndarray], float]  # 0 when feasible, else a size
    x0: np.ndarray
    F_star: float           # best independent estimate of the optimal value
    F_lower: float          # certified lower bound on the optimal value
    convex: bool
    stationarity: Optional[Callable[[np.ndarray], float]] = None

    def tol(self, rel: float) -> float:
        return rel * (1.0 + abs(self.F_star))


def _simplex_shrink(s: np.ndarray, r: float) -> np.ndarray:
    """Project a nonnegative vector onto {t >= 0, sum t <= r}."""
    if s.sum() <= r:
        return s
    u = np.sort(s)[::-1]
    css = np.cumsum(u) - r
    k = np.nonzero(u - css / np.arange(1, u.size + 1) > 0)[0][-1]
    return np.maximum(s - css[k] / (k + 1.0), 0.0)


def mle_oracle(seed: int, n: int, l: float, u: float, M: int) -> Oracle:
    rng = np.random.default_rng(seed)
    y = rng.normal(0.0, math.sqrt(10.0), size=n)
    samples = y[None, :] + rng.normal(size=(M, n))
    Y = samples.T @ samples / M
    Y = 0.5 * (Y + Y.T)
    lam = np.linalg.eigvalsh(Y)
    xs = np.where(lam <= 1.0 / u, u, np.clip(1.0 / np.maximum(lam, 1e-300), l, u))
    F_star = float(np.sum(-np.log(xs) + xs * lam))

    def F(x):
        X = x.reshape(n, n)
        sign, logdet = np.linalg.slogdet(X)
        return -logdet + float(np.sum(X * Y)) if sign > 0 else math.inf

    def grad(x):
        return (Y - np.linalg.inv(x.reshape(n, n))).ravel()

    def infeas(x):
        X = x.reshape(n, n)
        w = np.linalg.eigvalsh(0.5 * (X + X.T))
        asym = float(np.max(np.abs(X - X.T)))
        bad = max(l - w[0], w[-1] - u, asym)
        return bad if bad > 1e-10 * (1.0 + u) else 0.0

    return Oracle("mle", F, grad, infeas, (0.5 * (l + u) * np.eye(n)).ravel(),
                  F_star, F_star, True)


def lrmc_oracle(seed: int, n: int, r: int, fraction: float) -> Oracle:
    rng = np.random.default_rng(seed)
    A = rng.normal(size=(n, r)) @ rng.normal(size=(n, r)).T
    idx = rng.choice(n * n, size=int(fraction * n * n), replace=False)
    mask = np.zeros(n * n, dtype=bool)
    mask[idx] = True
    mask = mask.reshape(n, n)
    PA = np.where(mask, A, 0.0)
    radius = float(r)

    def G(X):
        return np.where(mask, X, 0.0) - PA

    def F(x):
        R = G(x.reshape(n, n))
        return 0.5 * float(np.sum(R * R))

    def fw_gap(X):
        D = G(X)
        return float(np.sum(D * X)) + radius * float(np.linalg.norm(D, 2))

    def infeas(x):
        s = np.linalg.svd(x.reshape(n, n), compute_uv=False)
        return max(0.0, float(s.sum()) - radius * (1.0 + 1e-8))

    # projected gradient with the exact step 1 (the loss is 1-smooth)
    X = np.zeros((n, n))
    for _ in range(20000):
        Uz, s, Vt = np.linalg.svd(X - G(X), full_matrices=False)
        X = (Uz * _simplex_shrink(s, radius)) @ Vt
        if fw_gap(X) <= 1e-13 * (1.0 + F(X.ravel())):
            break
    F_hi = F(X.ravel())
    return Oracle("lrmc", F, lambda x: G(x.reshape(n, n)).ravel(), infeas,
                  np.zeros(n * n), F_hi, F_hi - max(fw_gap(X), 0.0), True,
                  stationarity=lambda y: fw_gap(y.reshape(n, n)))


def curve_oracle(seed: int, m: int, n: int) -> Oracle:
    rng = np.random.default_rng(seed)
    A = None
    for _ in range(10):
        cand = rng.normal(size=(m, n))
        if np.linalg.matrix_rank(cand) == m:
            A = cand
            break
    if A is None:
        raise RuntimeError("could not rebuild a full-row-rank constraint matrix")
    b = A @ rng.normal(size=n)
    x_p = A.T @ np.linalg.solve(A @ A.T, b)
    N = scipy.linalg.null_space(A)

    def F(x):
        d = np.diff(x)
        return float(np.sqrt(1.0 + x[0] ** 2) + np.sum(np.sqrt(1.0 + d * d)))

    def grad(x):
        d = np.diff(x)
        s = d / np.sqrt(1.0 + d * d)
        g = np.zeros_like(x)
        g[0] = x[0] / math.sqrt(1.0 + x[0] ** 2)
        g[:-1] -= s
        g[1:] += s
        return g

    def hess(x):
        d = np.diff(x)
        h = (1.0 + d * d) ** -1.5
        H = np.zeros((n, n))
        H[0, 0] = (1.0 + x[0] ** 2) ** -1.5
        i = np.arange(n - 1)
        H[i, i] += h
        H[i + 1, i + 1] += h
        H[i, i + 1] -= h
        H[i + 1, i] -= h
        return H

    def reduced(z):
        x = x_p + N @ z
        return F(x), N.T @ grad(x)

    res = scipy.optimize.minimize(reduced, np.zeros(N.shape[1]), jac=True,
                                  method="BFGS", options={"gtol": 1e-10, "maxiter": 5000})
    z = res.x
    for _ in range(8):  # Newton polish on the reduced problem
        x = x_p + N @ z
        g = N.T @ grad(x)
        if np.linalg.norm(g) <= 1e-14:
            break
        z = z - np.linalg.solve(N.T @ hess(x) @ N, g)
    x = x_p + N @ z
    g = N.T @ grad(x)
    mu = float(np.linalg.eigvalsh(N.T @ hess(x) @ N)[0])
    F_hi = F(x)
    bound = float(g @ g) / (2.0 * mu) + 1e-14 * (1.0 + abs(F_hi))
    tol_b = 1e-8 * (1.0 + np.linalg.norm(b))

    def infeas(y):
        r = float(np.linalg.norm(A @ y - b))
        return 0.0 if r <= tol_b else r

    return Oracle("curve", F, grad, infeas, x_p, F_hi, F_hi - bound, True,
                  stationarity=lambda y: float(np.linalg.norm(N.T @ grad(y))))


def nmf_oracle(seed: int, n: int, r: int, start_index: int = 0) -> Oracle:
    rng = np.random.default_rng(seed)
    B = np.maximum(rng.normal(size=(n, r)), 0.0)
    C = np.maximum(rng.normal(size=(n, r)), 0.0)
    A = B @ C.T

    def split(x):
        return x[: n * r].reshape(n, r), x[n * r:].reshape(n, r)

    def F(x):
        U, V = split(x)
        W = U @ V.T - A
        return 0.5 * float(np.sum(W * W))

    def grad(x):
        U, V = split(x)
        W = U @ V.T - A
        return np.concatenate([(W @ V).ravel(), (W.T @ U).ravel()])

    def infeas(x):
        return max(0.0, -float(np.min(x)) - 1e-12)

    x0 = np.abs(np.random.default_rng([seed, 7001, start_index]).normal(size=2 * n * r))
    return Oracle("nmf", F, grad, infeas, x0, 0.0, 0.0, False)


def dual_entropy_oracle(seed: int, m: int, n: int) -> Oracle:
    rng = np.random.default_rng(seed)
    A = rng.normal(size=(m, n))
    b = A @ rng.dirichlet(np.ones(n))

    def F(x):
        lam, mu = x[:m], x[m]
        return math.exp(float(logsumexp(-(A.T @ lam))) - mu - 1.0) + float(b @ lam) + float(mu)

    def grad(x):
        lam, mu = x[:m], x[m]
        t = -(A.T @ lam)
        s = float(logsumexp(t))
        E = math.exp(s - mu - 1.0)
        g = np.empty(m + 1)
        g[:m] = b - E * (A @ np.exp(t - s))
        g[m] = 1.0 - E
        return g

    def infeas(x):
        return max(0.0, -float(np.min(x[:m])) - 1e-12)

    def gap(x):
        # primal entropy objective at w_i = exp(-1 - mu - a_i'lam) plus the dual
        lam, mu = x[:m], x[m]
        logw = -1.0 - mu - (A.T @ lam)
        return float(np.sum(np.exp(logw) * logw)) + F(x)

    def value_and_grad(x):
        return F(x), grad(x)

    bounds = [(0.0, None)] * m + [(None, None)]
    res = scipy.optimize.minimize(value_and_grad, np.zeros(m + 1), jac=True, method="L-BFGS-B",
                                  bounds=bounds,
                                  options={"maxiter": 50000, "maxfun": 100000,
                                           "ftol": 1e-16, "gtol": 1e-13, "maxcor": 30})
    x = res.x
    for _ in range(20):  # Newton polish on the coordinates off the bound
        g = grad(x)
        free = np.ones(m + 1, dtype=bool)
        free[:m] = (x[:m] > 0.0) | (g[:m] < 0.0)
        if np.linalg.norm(g[free]) <= 1e-14:
            break
        t = -(A.T @ x[:m])
        p = np.exp(t - logsumexp(t))
        E = 1.0 - g[m]
        H = np.empty((m + 1, m + 1))
        H[:m, :m] = (A * p) @ A.T
        H[:m, m] = H[m, :m] = A @ p
        H[m, m] = 1.0
        # A has more rows than columns, so H is singular: take the
        # least-norm step and halve it until the objective does not rise
        step = np.linalg.lstsq(E * H[np.ix_(free, free)], g[free], rcond=None)[0]
        F_x = F(x)
        for _ in range(40):
            y = x.copy()
            y[free] -= step
            y[:m] = np.maximum(y[:m], 0.0)
            if F(y) <= F_x:
                break
            step = 0.5 * step
        else:
            break
        x = y
    F_hi = F(x)
    slack = abs(gap(x)) + 1e-12 * (1.0 + abs(F_hi))
    return Oracle("dual_entropy", F, grad, infeas, np.zeros(m + 1), F_hi, F_hi - slack, True,
                  stationarity=lambda x: abs(gap(x)))


def make_oracle(kind: str, seed: int, start_index: int = 0) -> Oracle:
    """Oracle for the desk-scale instance of ``kind`` generated from ``seed``."""
    p = DESK[kind]
    if kind == "mle":
        return mle_oracle(seed, **p)
    if kind == "lrmc":
        return lrmc_oracle(seed, **p)
    if kind == "curve":
        return curve_oracle(seed, **p)
    if kind == "nmf":
        return nmf_oracle(seed, **p, start_index=start_index)
    if kind == "dual_entropy":
        return dual_entropy_oracle(seed, **p)
    raise ValueError(f"no oracle for {kind!r}")
