"""Seeded problem generators and closed-form oracles.

Every generator is a pure function of its seed: regenerating with the same
arguments is bit-identical.  Instances carry their starting point, generation
parameters (enough to rebuild them), and a domain-aware point sampler used by
the gradient-validation and cocoercivity test suites.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .core import (
    CompositeProblem,
    NumericalError,
    SmoothFunction,
    composite,
)
from .prox import (
    SpectralBox,
    affine_indicator,
    nonneg_indicator,
    nuclear_ball_indicator,
)

# piecewise objective: quadratic bowl glued C^1 onto two near-linear tails
TAIL_SLOPE = 2.0
TAIL_OFFSET = 2.0 * math.log(2.0) - 1.5


def counterexample_f(x: float) -> tuple:
    """Value and derivative of the bowl-with-flat-tails objective.

    Quadratic on [-1, 1], then a(|x| - log(1+|x|)) + b outside, with a and b
    chosen so value and slope match at +-1.  The derivative tends to +-a/...
    +-2 at infinity while the curvature decays like 2/(1+|x|)^2, which is what
    lets unguarded curvature-based stepsizes overshoot.
    """
    ax = abs(x)
    if ax <= 1.0:
        return 0.5 * x * x, float(x)
    value = TAIL_SLOPE * (ax - math.log1p(ax)) + TAIL_OFFSET
    return value, TAIL_SLOPE * x / (1.0 + ax)


@dataclass(frozen=True)
class ProblemInstance:
    """A concrete, regenerable optimization problem plus its starting point."""

    kind: str
    composite: CompositeProblem
    x0: np.ndarray
    generator_seed: Optional[int]
    metadata: dict = field(default_factory=dict)
    convex: bool = True
    solution: Optional[np.ndarray] = None
    sample_point: Optional[Callable] = None

    @property
    def dimension(self) -> int:
        return self.composite.dimension

    @property
    def label(self) -> str:
        return self.composite.f.name


def _freeze(*arrays):
    for a in arrays:
        a.flags.writeable = False


# ---------------------------------------------------------------------------
# Unit problems
# ---------------------------------------------------------------------------

def make_quadratic(seed: int, n: int, condition_number: float = 100.0) -> ProblemInstance:
    """f(x) = 0.5 x'Qx - b'x with spectrum linspace(1, condition_number)."""
    rng = np.random.default_rng(seed)
    Q, _ = np.linalg.qr(rng.normal(size=(n, n)))
    eigs = np.linspace(1.0, float(condition_number), n)
    M = (Q * eigs) @ Q.T
    M = 0.5 * (M + M.T)
    x_star = rng.normal(size=n)
    b = M @ x_star
    x0 = x_star + rng.normal(size=n)
    _freeze(M, b, x_star, x0)

    f = SmoothFunction(
        dimension=n,
        value=lambda x: 0.5 * float(x @ (M @ x)) - float(b @ x),
        gradient=lambda x: M @ x - b,
        name=f"quadratic(n={n},cond={condition_number:g})",
        lipschitz=float(condition_number),
    )
    return ProblemInstance(
        kind="quadratic",
        composite=composite(f),
        x0=x0,
        generator_seed=seed,
        metadata={"n": n, "condition_number": condition_number},
        solution=np.linalg.solve(M, b),
        sample_point=lambda rng: rng.normal(size=n),
    )


def make_least_squares(seed: int, n: int, d: int) -> ProblemInstance:
    """f(x) = 0.5 ||Ax - b||^2 with noisy consistent data."""
    rng = np.random.default_rng(seed)
    A = rng.normal(size=(n, d))
    x_hat = rng.normal(size=d)
    b = A @ x_hat + 0.1 * rng.normal(size=n)
    x0 = rng.normal(size=d)
    _freeze(A, b, x0)
    L = float(np.linalg.svd(A, compute_uv=False)[0] ** 2)

    f = SmoothFunction(
        dimension=d,
        value=lambda x: 0.5 * float(np.sum((A @ x - b) ** 2)),
        gradient=lambda x: A.T @ (A @ x - b),
        name=f"least_squares(n={n},d={d})",
        lipschitz=L,
    )
    return ProblemInstance(
        kind="least_squares",
        composite=composite(f),
        x0=x0,
        generator_seed=seed,
        metadata={"n": n, "d": d},
        solution=np.linalg.lstsq(A, b, rcond=None)[0],
        sample_point=lambda rng: rng.normal(size=d),
    )


def _sigmoid(t: float) -> float:
    """1 / (1 + e^-t), 0 once e^-t overflows; equal to ``scipy.special.expit``."""
    try:
        return 1.0 / (1.0 + math.exp(-t))
    except OverflowError:
        return 0.0


def make_logistic(seed: int, d: int) -> ProblemInstance:
    """Single-sample logistic loss log(1 + exp(-b a'x)); flat far out.

    The infimum 0 is not attained, so references for it are plateau anchors
    produced by a long run rather than true minimizers.
    """
    rng = np.random.default_rng(seed)
    a = rng.normal(size=d)
    y = 1.0 if rng.random() < 0.5 else -1.0
    _freeze(a)
    L = 0.25 * float(a @ a)

    def value(x):
        return float(np.logaddexp(0.0, -y * float(a @ x)))

    def gradient(x):
        return (-y * _sigmoid(-y * float(a @ x))) * a

    f = SmoothFunction(
        dimension=d,
        value=value,
        gradient=gradient,
        name=f"logistic(d={d})",
        lipschitz=L,
    )
    return ProblemInstance(
        kind="logistic",
        composite=composite(f),
        x0=np.zeros(d),
        generator_seed=seed,
        metadata={"d": d},
        sample_point=lambda rng: rng.normal(size=d),
    )


def make_quartic() -> ProblemInstance:
    """f(x) = x^4: convex, smooth on bounded sets only."""
    f = SmoothFunction(
        dimension=1,
        value=lambda x: float(x[0] ** 4),
        gradient=lambda x: np.array([4.0 * x[0] ** 3]),
        name="quartic",
    )
    return ProblemInstance(
        kind="quartic",
        composite=composite(f),
        x0=np.array([1.0]),
        generator_seed=None,
        metadata={},
        solution=np.array([0.0]),
        sample_point=lambda rng: rng.normal(size=1),
    )


def make_counterexample(x0: float = 12.0) -> ProblemInstance:
    """The bowl-with-flat-tails objective as a one-dimensional instance."""
    f = SmoothFunction(
        dimension=1,
        value=lambda x: counterexample_f(float(x[0]))[0],
        gradient=lambda x: np.array([counterexample_f(float(x[0]))[1]]),
        name="counterexample",
        lipschitz=1.0,
    )
    return ProblemInstance(
        kind="counterexample",
        composite=composite(f),
        x0=np.array([float(x0)]),
        generator_seed=None,
        metadata={"x0": float(x0)},
        solution=np.array([0.0]),
        sample_point=lambda rng: 8.0 * rng.normal(size=1),
    )


# ---------------------------------------------------------------------------
# Experiment problems
# ---------------------------------------------------------------------------

def make_mle(seed: int, n: int, l: float = 0.1, u: float = 10.0, M: int = 50) -> ProblemInstance:
    """Inverse-covariance fit -log det X + tr(XY) over l I <= X <= u I.

    Y averages M noisy copies of one Gaussian draw, so it is PSD with a
    dominant direction.  The box keeps every iterate positive definite.  The
    minimizer shares Y's eigenvectors: X* = Q diag(clip(1/lambda_i, l, u)) Q'
    for Y = Q diag(lambda) Q', with lambda_i <= 1/u mapped to u.  At the box's
    last prox output, log det X and X^-1 come from the prox's eigenvalues, and
    the gradient there arms the box's warm start (see ``SpectralBox``).
    """
    if n < 1 or not (0 < l < u) or M < 1:
        raise ValueError("require n >= 1, 0 < l < u and M >= 1")
    rng = np.random.default_rng(seed)
    y = rng.normal(0.0, math.sqrt(10.0), size=n)
    samples = y[None, :] + rng.normal(size=(M, n))
    Y = (samples.T @ samples) / M
    Y = 0.5 * (Y + Y.T)
    _freeze(Y)

    box = SpectralBox(n, l, u)

    def value(x):
        X = x.reshape(n, n)
        if x is box.x:
            logdet = np.sum(np.log(box.c))
        else:
            sign, logdet = np.linalg.slogdet(X)
            if sign <= 0:
                raise NumericalError("matrix left the positive-definite cone")
        return float(-logdet + np.sum(X * Y))

    def gradient(x):
        Xi = (box.Q / box.c) @ box.Q.T if box.arm(x) else np.linalg.inv(x.reshape(n, n))
        return (Y - 0.5 * (Xi + Xi.T)).ravel()

    f = SmoothFunction(
        dimension=n * n,
        value=value,
        gradient=gradient,
        name=f"mle(n={n})",
    )
    x0 = (0.5 * (l + u)) * np.eye(n)

    lam, Q = np.linalg.eigh(Y)
    x_star = ((Q * np.clip(1.0 / np.maximum(lam, 1.0 / u), l, u)) @ Q.T).ravel()
    _freeze(x_star)

    def sample_point(rng):
        Q, _ = np.linalg.qr(rng.normal(size=(n, n)))
        return ((Q * rng.uniform(l, u, size=n)) @ Q.T).ravel()

    return ProblemInstance(
        kind="mle",
        composite=composite(f, box.indicator()),
        x0=x0.ravel(),
        generator_seed=seed,
        metadata={"n": n, "l": l, "u": u, "M": M},
        solution=x_star,
        sample_point=sample_point,
    )


def make_lrmc(seed: int, n: int, r: int = 10, fraction: float = 0.2) -> ProblemInstance:
    """Masked completion 0.5 ||P_Omega(X - A)||_F^2 over ||X||_* <= r.

    A is an exact rank-r product; Omega samples fraction * n^2 entries
    without replacement.
    """
    if n < 1 or r < 1 or not (0 < fraction <= 1):
        raise ValueError("require n >= 1, r >= 1 and fraction in (0, 1]")
    rng = np.random.default_rng(seed)
    U = rng.normal(size=(n, r))
    V = rng.normal(size=(n, r))
    A = U @ V.T
    idx = rng.choice(n * n, size=int(fraction * n * n), replace=False)
    mask = np.zeros(n * n, dtype=bool)
    mask[idx] = True
    mask = mask.reshape(n, n)
    masked_A = np.where(mask, A, 0.0)
    _freeze(A, mask, masked_A)

    def value(x):
        R = np.where(mask, x.reshape(n, n), 0.0) - masked_A
        return 0.5 * float(np.sum(R * R))

    def gradient(x):
        R = np.where(mask, x.reshape(n, n), 0.0) - masked_A
        return R.ravel()

    f = SmoothFunction(
        dimension=n * n,
        value=value,
        gradient=gradient,
        name=f"lrmc(n={n},r={r})",
        lipschitz=1.0,
    )
    return ProblemInstance(
        kind="lrmc",
        composite=composite(f, nuclear_ball_indicator((n, n), float(r))),
        x0=np.zeros(n * n),
        generator_seed=seed,
        metadata={"n": n, "r": r, "fraction": fraction},
        sample_point=lambda rng: rng.normal(size=n * n),
    )


def make_min_curve(seed: int, m: int, n: int) -> ProblemInstance:
    """Length of a piecewise-linear curve through (i, x_i), subject to Ax = b.

    First segment runs from the origin to (1, x_1), hence the sqrt(1 + x_1^2)
    leading term; the remaining terms chain consecutive differences.
    """
    if m > n:
        raise ValueError("require m <= n")
    rng = np.random.default_rng(seed)
    A = rng.normal(size=(m, n))   # full row rank almost surely; affine_pinv checks
    w = rng.normal(size=n)
    b = A @ w
    _freeze(A, b)

    def value(x):
        d = np.diff(x)
        return float(np.sqrt(1.0 + x[0] ** 2) + np.sum(np.sqrt(1.0 + d * d)))

    def gradient(x):
        d = np.diff(x)
        s = d / np.sqrt(1.0 + d * d)
        g = np.zeros_like(x)
        g[0] = x[0] / math.sqrt(1.0 + x[0] ** 2)
        g[:-1] -= s
        g[1:] += s
        return g

    f = SmoothFunction(
        dimension=n,
        value=value,
        gradient=gradient,
        name=f"curve(m={m},n={n})",
    )
    g = affine_indicator(A, b)
    return ProblemInstance(
        kind="curve",
        composite=composite(f, g),
        x0=g.prox(1.0, np.zeros(n)),
        generator_seed=seed,
        metadata={"m": m, "n": n},
        sample_point=lambda rng: rng.normal(size=n),
    )


def make_nmf(seed: int, n: int, r: int = 10, start_index: int = 0) -> ProblemInstance:
    """Nonnegative factorization 0.5 ||UV' - A||_F^2 over U, V >= 0.

    A = BC' is built from clamped Gaussian factors, so x* = (B, C) attains the
    optimal value zero exactly.  Nonconvex: certificates that rely on
    convexity do not apply.  ``start_index`` varies only the starting point.
    """
    if n < 1 or r < 1:
        raise ValueError("require n >= 1 and r >= 1")
    rng = np.random.default_rng(seed)
    B = np.maximum(rng.normal(size=(n, r)), 0.0)
    C = np.maximum(rng.normal(size=(n, r)), 0.0)
    A = B @ C.T
    x_star = np.concatenate([B.ravel(), C.ravel()])
    _freeze(A, x_star)
    dim = 2 * n * r

    def split(x):
        return x[: n * r].reshape(n, r), x[n * r:].reshape(n, r)

    def value(x):
        U, V = split(x)
        W = U @ V.T - A
        return 0.5 * float(np.sum(W * W))

    def gradient(x):
        U, V = split(x)
        W = U @ V.T - A
        return np.concatenate([(W @ V).ravel(), (W.T @ U).ravel()])

    f = SmoothFunction(
        dimension=dim,
        value=value,
        gradient=gradient,
        name=f"nmf(n={n},r={r})",
    )
    x0 = np.abs(np.random.default_rng([seed, 7001, start_index]).normal(size=dim))
    return ProblemInstance(
        kind="nmf",
        composite=composite(f, nonneg_indicator()),
        x0=x0,
        generator_seed=seed,
        metadata={"n": n, "r": r, "start_index": start_index},
        convex=False,
        solution=x_star,
        sample_point=lambda rng: np.abs(rng.normal(size=dim)),
    )


def _logsumexp(a: np.ndarray) -> np.float64:
    """log(sum(exp(a))) for a 1-d float64 array.

    The same steps as ``scipy.special.logsumexp`` for real input, so the
    results agree bit for bit: the maxima are taken out of the shifted sum
    and enter through their count m, as log1p(s) + log(m) + max.
    """
    a_max = a.max()
    i_max = a == a_max
    m = np.float64(np.count_nonzero(i_max))
    e = np.exp(a - a_max)
    e[i_max] = 0.0  # zeroed in place, so the pairwise sum keeps its order
    s = e.sum()
    if s != 0.0:
        s = s / m
    return np.log1p(s) + np.log(m) + a_max


def make_dual_entropy(seed: int, m: int, n: int) -> ProblemInstance:
    """Dual of entropy maximization: e^{-mu-1} sum_i e^{-a_i'lam} + b'lam + mu.

    Variables are (lam in R^m_+, mu in R); a_i are the columns of A.  The
    exponential sum is evaluated through a log-sum-exp shift.  It does not
    call ``scipy.special.logsumexp``: on a 50-vector its array-API dispatch
    costs 100-150 us per call, most of a desk gradient, while
    ``_logsumexp`` repeats its arithmetic in 10-15 us.  The plain
    max + log(sum(exp)) shortcut is avoided because it rounds differently
    on about 1.5% of inputs, which would change the stored traces.
    """
    if n < 1:
        raise ValueError("require n >= 1")
    rng = np.random.default_rng(seed)
    A = rng.normal(size=(m, n))
    w = rng.dirichlet(np.ones(n))
    b = A @ w
    _freeze(A, b)
    dim = m + 1

    def parts(x):
        lam, mu = x[:m], x[m]
        t = A.T @ lam
        s = float(_logsumexp(-t))
        expo = s - mu - 1.0
        if expo > 700.0:
            raise NumericalError("exponential overflow in dual objective")
        return lam, mu, t, s, math.exp(expo)

    def value(x):
        lam, mu, _, _, E = parts(x)
        return E + float(b @ lam) + mu

    def gradient(x):
        lam, mu, t, s, E = parts(x)
        weights = np.exp(-t - s)  # sums to one
        g = np.empty(dim)
        g[:m] = b - E * (A @ weights)
        g[m] = 1.0 - E
        return g

    f = SmoothFunction(
        dimension=dim,
        value=value,
        gradient=gradient,
        name=f"dual_entropy(m={m},n={n})",
    )
    return ProblemInstance(
        kind="dual_entropy",
        composite=composite(f, nonneg_indicator(m)),
        x0=np.zeros(dim),
        generator_seed=seed,
        metadata={"m": m, "n": n},
        sample_point=lambda rng: 0.3 * rng.normal(size=dim),
    )


# ---------------------------------------------------------------------------
# Registry, scales, serialization
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Kind:
    """One problem kind: its maker; the maker arguments of the desk
    (per-run-under-a-minute) and paper (figure) scales that differ from the
    maker's defaults; the ``accounting.METRICS`` key it is compared by; and
    whether the default experiment matrix runs it, as it does every kind with
    a prox part."""

    make: Callable[..., ProblemInstance]
    desk: dict = field(default_factory=dict)
    paper: dict = field(default_factory=dict)
    metric: str = "oracle_calls"
    experiment: bool = False


KINDS = {
    "quadratic": Kind(make_quadratic, {"n": 50}, {"n": 200, "condition_number": 1000.0}),
    "least_squares": Kind(make_least_squares, {"n": 80, "d": 40}, {"n": 500, "d": 200}),
    "logistic": Kind(make_logistic, {"d": 30}, {"d": 100}),
    "quartic": Kind(lambda seed: make_quartic()),
    "counterexample": Kind(lambda seed, x0=12.0: make_counterexample(x0)),
    "mle": Kind(make_mle, {"n": 50}, {"n": 100}, "projections", True),
    "lrmc": Kind(make_lrmc, {"n": 60}, {"n": 100, "r": 20}, "svds", True),
    "curve": Kind(make_min_curve, {"m": 20, "n": 100}, {"m": 50, "n": 200}, "projections", True),
    "nmf": Kind(make_nmf, {"n": 60}, {"n": 100, "r": 20}, "matmul_units", True),
    "dual_entropy": Kind(make_dual_entropy, {"m": 100, "n": 50}, {"m": 500, "n": 100},
                         "matvec_units", True),
}

EXPERIMENT_KINDS = tuple(name for name, kind in KINDS.items() if kind.experiment)
SCALE_NAMES = ("desk", "paper")   # the Kind fields that hold a scale's arguments


def make_problem(kind: str, seed: int = 0, scale: str = "desk") -> ProblemInstance:
    """Build a problem by name at a named scale."""
    if kind not in KINDS:
        raise ValueError(f"unknown problem kind {kind!r}")
    if scale not in SCALE_NAMES:
        raise ValueError(f"unknown scale {scale!r}")
    return KINDS[kind].make(seed=seed, **getattr(KINDS[kind], scale))


def instance_descriptor(inst: ProblemInstance) -> dict:
    """Self-describing dict from which the instance regenerates bit-identically."""
    return {
        "kind": inst.kind,
        "seed": inst.generator_seed,
        "params": dict(inst.metadata),
        "format": "adgd-problem-v1",
    }


def instance_from_descriptor(desc: dict) -> ProblemInstance:
    if desc.get("format") != "adgd-problem-v1":
        raise ValueError("unrecognized problem container format")
    return KINDS[desc["kind"]].make(seed=desc["seed"], **desc.get("params", {}))
