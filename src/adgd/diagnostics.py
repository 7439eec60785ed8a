"""Trajectory-level certificates.

Every check evaluates both sides of its inequality from recorded trace data
alone (iterates, gradients, stepsizes), so a passing certificate is evidence
independent of the solver internals.  Each report carries the worst signed
slack (negative means margin), the iteration where it occurred, and the
tolerance that was applied.

Reference solutions enter only as anchor points: the inequalities verified
here are derived from convexity at an arbitrary fixed point, so an anchor
with a small residual is valid even when the true infimum is not attained
(the single-sample logistic objective, for instance).  Anchor error is
absorbed by the stated additive slacks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from .core import ReferenceSolution
from .solvers import Trace

SQRT2 = math.sqrt(2.0)
SQRT3 = math.sqrt(3.0)
SQRT5 = math.sqrt(5.0)
MONOTONICITY_TOL = 1e-9   # additive slack of both monotonicity checks
RATE_REL_TOL = 1e-6       # relative slack of the rate bound


@dataclass(frozen=True)
class CertificateReport:
    name: str
    passed: bool
    worst_violation: float      # signed slack after tolerance; <= 0 passes
    worst_iteration: int
    tolerance: float
    n_checked: int
    note: str = ""

    def to_line(self) -> str:
        flag = "PASS" if self.passed else "FAIL"
        return (f"{self.name:28s} {flag}  worst={self.worst_violation:+.3e} "
                f"at k={self.worst_iteration:<6d} tol={self.tolerance:.1e} "
                f"n={self.n_checked}"
                + (f"  [{self.note}]" if self.note else ""))


@dataclass(frozen=True)
class BreakpointRecord:
    indices: List[int]
    dichotomy_violations: List[int] = field(default_factory=list)

    @property
    def dichotomy_ok(self) -> bool:
        return not self.dichotomy_violations


def _report(name, viol, iters, tol, note="") -> CertificateReport:
    viol = np.asarray(viol, dtype=np.float64)
    if viol.size == 0:
        return CertificateReport(name, True, -math.inf, -1, tol, 0,
                                 note or "vacuous: nothing to check")
    worst = int(np.argmax(viol))
    return CertificateReport(name, bool(viol[worst] <= 0.0), float(viol[worst]),
                             int(iters[worst]), tol, int(viol.size), note)


def _not_applicable(name, why) -> CertificateReport:
    return CertificateReport(name, True, -math.inf, -1, 0.0, 0, f"not applicable: {why}")


def _need_recorded(trace: Trace):
    if trace.xs is None or trace.grads is None:
        raise ValueError("trace was not recorded with iterates; rerun with record_trace=True")


def _need_reference(reference):
    if reference is None:
        raise ValueError("reference required")


def check_feasibility(problem, trace: Trace) -> CertificateReport:
    """g is finite at every recorded iterate.  The iterates are copies, so an
    indicator applies its full test to each, not its shortcut at a prox output."""
    name = "feasibility"
    if not trace.prox_run:
        return _not_applicable(name, "no prox-friendly part")
    _need_recorded(trace)
    g = problem.composite.g
    viol = [0.0 if math.isfinite(g.value(x)) else math.inf for x in trace.xs]
    return _report(name, viol, range(len(viol)), 0.0)


# ---------------------------------------------------------------------------
# Monotonicity facts
# ---------------------------------------------------------------------------

def check_gradient_monotonicity(trace: Trace) -> CertificateReport:
    """<grad^k, grad^{k-1}> <= ||grad^{k-1}||^2 (+ tol scaling) at GD iterates."""
    name = "gradient_monotonicity"
    if trace.prox_run:
        return _not_applicable(name, "proximal run; see subgradient_monotonicity")
    _need_recorded(trace)
    g = trace.grads
    sq = np.vecdot(g[:-1], g[:-1])
    viol = np.vecdot(g[1:], g[:-1]) - sq - MONOTONICITY_TOL * (1.0 + sq)
    return _report(name, viol, np.arange(1, g.shape[0]), MONOTONICITY_TOL)


def _subgradient_norms(trace: Trace, n: int, shift: int) -> np.ndarray:
    """||grad^k + v^{k+shift}|| for k < n, summed in place in the fresh array
    ``trace.subgrads`` returns, so no other iterate-sized array is made."""
    v = trace.subgrads[shift:n + shift]
    v += trace.grads[:n]
    return np.sqrt(np.vecdot(v, v))


def check_subgradient_monotonicity(trace: Trace) -> CertificateReport:
    """||grad^k + v^{k+1}|| <= ||grad^k + v^k|| (+ tol) at proximal iterates."""
    name = "subgradient_monotonicity"
    if not trace.prox_run:
        return _not_applicable(name, "no prox-friendly part")
    _need_recorded(trace)
    n = min(trace.grads.shape[0], trace.xs.shape[0]) - 1
    viol = _subgradient_norms(trace, n, 1) - _subgradient_norms(trace, n, 0) - MONOTONICITY_TOL
    return _report(name, viol, np.arange(n), MONOTONICITY_TOL)


# ---------------------------------------------------------------------------
# Stepsize-rule bounds
# ---------------------------------------------------------------------------

def check_stepsize_bounds(trace: Trace) -> List[CertificateReport]:
    """Both per-step bounds the adaptive rules promise.

    Growth bound: alpha_k <= sqrt(c0 + theta_{k-1}) alpha_{k-1}; curvature
    bound: alpha_k L_k <= 1/sqrt(2) (first rule) or
    alpha_k^2 L_k^2 - alpha_k^2 / (2 alpha_{k-1}^2) <= 1/2 (second rule).
    """
    if trace.rule.kind not in ("adgd1", "adgd2"):
        return [_not_applicable("stepsize_bounds", f"rule {trace.rule_name}")]
    a, th, L = trace.alphas, trace.thetas, trace.curvatures
    first_rule = trace.rule.kind == "adgd1"
    c0 = 1.0 if first_rule else 2.0 / 3.0
    grow_viol = a[1:] - np.sqrt(c0 + th[:-1]) * a[:-1] * (1 + 1e-12)
    t = a[1:] * L[1:]
    curv_viol = (t - 1.0 / SQRT2 - 1e-10 if first_rule
                 else t * t - (a[1:] / a[:-1]) ** 2 / 2.0 - 0.5 - 1e-10)
    its = np.arange(1, trace.iters)
    return [
        _report("stepsize_growth_bound", grow_viol, its, 1e-12),
        _report("stepsize_curvature_bound", curv_viol, its, 1e-10),
    ]


def check_stepsize_sum(trace: Trace, L_ref: Optional[float] = None) -> List[CertificateReport]:
    """Stepsize floor, cumulative-sum bound, and their supporting branch facts.

    ``L_ref`` defaults to the largest curvature estimate along the run, a
    lower bound for the trajectory-ball smoothness constant; the floor
    1/(sqrt(3) L_ref) and the sum bound k/(sqrt(2) L_ref) are therefore
    stronger claims than the ball-constant versions, and a failure here calls
    for a curvature sweep before being treated as real.
    """
    if trace.rule.kind != "adgd2":
        return [_not_applicable("stepsize_sum", f"rule {trace.rule_name}")]
    if L_ref is None:
        L_ref = trace.max_curvature
    a, th, L = trace.alphas, trace.thetas, trace.curvatures
    out = []

    # per step k >= 1: the curvature bound was the smaller of the two candidates
    # (an empty bracket makes it infinite)
    t = a[:-1] * L[1:]
    bracket = 2.0 * t * t - 1.0
    with np.errstate(divide="ignore", invalid="ignore"):
        second = a[:-1] / np.sqrt(bracket)
    second[bracket <= 0] = math.inf
    binds = second <= np.sqrt(2.0 / 3.0 + th[:-1]) * a[:-1]

    # AM-GM pair bound whenever the curvature bound was the binding one
    k = np.flatnonzero((L[1:] > 0) & binds) + 1
    pair = np.stack([2.0 / L[k] * (1 - 1e-9) - (a[k - 1] + a[k]),
                     1.0 / (SQRT2 * L[k]) * (1 - 1e-9) - a[k]], axis=1)
    out.append(_report("am_gm_pair_bound", pair.ravel(), np.repeat(k, 2), 1e-9))

    # small-ratio branch facts: theta_k < 1/3 forces the curvature bound and
    # large recent steps relative to 1/L_k.  One row of up to three facts per
    # step (a single inf where the bound did not bind), read row by row
    k = np.flatnonzero((th[1:] < 1.0 / 3.0) & (L[1:] > 0)) + 1
    branch = np.stack([SQRT5 * (1 - 1e-9) - a[k - 1] * L[k],
                       1.5 * (1 - 1e-9) - a[k - 2] * L[k],
                       1.0 * (1 - 1e-9) - a[k - 3] * L[k]], axis=1)
    bound = binds[k - 1]
    branch[~bound, 0] = math.inf
    present = np.stack([np.ones(k.size, bool), bound & (k >= 2), bound & (k >= 3)], axis=1)
    out.append(_report("small_theta_branch", branch[present],
                       np.broadcast_to(k[:, None], branch.shape)[present], 1e-9))

    # floor on every stepsize after the first
    if trace.iters > 1 and L_ref > 0:
        floor = (1.0 / (SQRT3 * L_ref) if trace.alpha0_searched
                 else min(trace.alpha0, 1.0 / (SQRT3 * L_ref)))
        kmin = 1 + int(np.argmin(a[1:]))
        viol = floor - 1e-12 - float(np.min(a[1:]))
        note = "searched alpha0" if trace.alpha0_searched else "floor includes alpha0"
        out.append(_report("stepsize_floor", [viol], [kmin], 1e-12, note))
    else:
        out.append(_not_applicable("stepsize_floor", "fewer than two steps"))

    # cumulative sum bound (needs the searched starting stepsize)
    if trace.alpha0_searched and trace.iters > 1 and L_ref > 0:
        sums = np.cumsum(a[1:])
        ks = np.arange(1, trace.iters)
        viol = ks / (SQRT2 * L_ref) * (1 - 1e-10) - sums
        out.append(_report("stepsize_sum", viol, ks, 1e-10))
    else:
        out.append(_not_applicable("stepsize_sum", "alpha0 not searched"))

    # window sum around each interior breakpoint
    rec = detect_breakpoints(trace, L_ref)
    m = np.array(rec.indices, dtype=np.int64)
    m = m[(m >= 2) & (m <= trace.iters - 3)]
    sums = a[m[:, None] + np.arange(-2, 3)].sum(axis=1)
    win_viol = 5.0 / L_ref * (1 - 1e-9) - sums if m.size else sums   # breakpoints: L_ref > 0
    out.append(_report("breakpoint_window_sum", win_viol, m, 1e-9,
                       f"{len(rec.indices)} breakpoint(s)"))
    return out


def detect_breakpoints(trace: Trace, L_ref: Optional[float] = None) -> BreakpointRecord:
    """Indices m with theta_m < 1/3 and alpha_m < 1/L_ref.

    Also verifies that any unusually small step (alpha_k < 1/(sqrt(2) L_ref))
    sits within two iterations of a breakpoint: either alpha_{k-1} is one, or
    alpha_{k-1} < alpha_k and alpha_{k-2} is one.
    """
    if L_ref is None:
        L_ref = trace.max_curvature
    a, th = trace.alphas, trace.thetas
    if L_ref <= 0 or trace.iters < 2:
        return BreakpointRecord([])
    is_bp = (th < 1.0 / 3.0) & (a < 1.0 / L_ref)
    is_bp[0] = False
    # per k = 3 .. iters-1
    near = is_bp[2:-1] | ((a[2:-1] < a[3:]) & is_bp[1:-2])
    lonely = (a[3:] < 1.0 / (SQRT2 * L_ref)) & ~near
    return BreakpointRecord(np.flatnonzero(is_bp).tolist(), (np.flatnonzero(lonely) + 3).tolist())


# ---------------------------------------------------------------------------
# Energy and rate certificates
# ---------------------------------------------------------------------------

def check_energy(trace: Trace, reference: ReferenceSolution) -> CertificateReport:
    """Per-step energy decrease with the recovered subgradients:

        ||x^{k+1}-x*||^2 + a_k^2 ||S^k||^2 + a_k (2+3 th_k)(F(x^k)-F*)
        <= ||x^k-x*||^2 + a_{k-1}^2 ||S^{k-1}||^2 + 3 a_k th_k (F(x^{k-1})-F*),

    where S^k = grad f(x^k) + v^k and v^0 = 0.  Without a prox-friendly part
    v = 0, so a_k^2 ||S^k||^2 = ||x^{k+1}-x^k||^2: the unconstrained energy.
    """
    name = "energy_decrease_prox" if trace.prox_run else "energy_decrease_gd"
    if trace.rule.kind != "adgd2":
        return _not_applicable(name, f"rule {trace.rule_name}"
                               + ("" if trace.prox_run else ", prox=False"))
    _need_reference(reference)
    _need_recorded(trace)
    K = trace.iters
    if K < 2:
        return _report(name, [], [], 0.0)
    F, a, th, Fr = trace.F_values, trace.alphas, trace.thetas, reference.F_star
    S = trace.subgrads               # v^k, then S^k and x^k - x* in place
    S[:trace.grads.shape[0]] += trace.grads
    S2 = np.sum(np.square(S, out=S), axis=1)
    dist2 = np.sum(np.square(np.subtract(trace.xs, reference.x_star, out=S), out=S), axis=1)
    lhs = dist2[2:K + 1] + a[1:] ** 2 * S2[1:K] + a[1:] * (2 + 3 * th[1:]) * (F[1:K] - Fr)
    rhs = dist2[1:K] + a[:-1] ** 2 * S2[:K - 1] + 3 * a[1:] * th[1:] * (F[:K - 1] - Fr)
    tol = 1e-7 * (1.0 + abs(rhs[0])) + 2.0 * reference.tolerance
    return _report(name, lhs - rhs - tol, np.arange(1, K), tol)


def check_rate(trace: Trace, reference: ReferenceSolution) -> CertificateReport:
    """Running-min bound  min_{i<=k}(F(x^i)-F*) <= R^2 / (2 sum_{i=1}^k a_i),
    with R^2 = ||x^0-x*||^2 + 2 a_0^2 ||S^0||^2 + a_0 (F(x^0)-F*), where S^0 is
    grad f(x^0), as v^0 = 0."""
    name = "rate_bound"
    if trace.rule.kind != "adgd2":
        return _not_applicable(name, f"rule {trace.rule_name}")
    _need_reference(reference)
    _need_recorded(trace)
    F, a, S0 = trace.F_values, trace.alphas, trace.grads[0]
    R2 = (float(np.sum((trace.xs[0] - reference.x_star) ** 2))
          + 2.0 * a[0] ** 2 * float(S0 @ S0) + a[0] * (F[0] - reference.F_star))
    run_min = np.minimum.accumulate(F[1:trace.iters] - reference.F_star)
    bound = R2 / (2.0 * np.cumsum(a[1:]))
    viol = run_min - bound * (1 + RATE_REL_TOL) - 2.0 * reference.tolerance
    return _report(name, viol, np.arange(1, trace.iters), RATE_REL_TOL,
                   f"R^2={R2:.3e}")


# ---------------------------------------------------------------------------
# Divergence pattern
# ---------------------------------------------------------------------------

def check_divergence_pattern(trace: Trace) -> CertificateReport:
    """Sign/magnitude structure of the divergent variant on the tails objective.

    Per block k: x^{2k} and x^{2k+1} share a sign, x^{2k+2} flips it, the
    flip at least doubles the magnitude (|x^{2k+2}| > 2|x^{2k+1}|), and the
    even subsequence grows (|x^{2k+2}| > |x^{2k}|).  The odd-step half-bound
    2|x^{2k+1}| > |x^{2k}| is provable only for the rule's c >= 2 (the
    same-sign shrink factor is 1 - (1+o(1))/(2c), which sits just below 1/2
    at c = 1), so it is asserted only there.  The run must have diverged.

    Note the even magnitudes multiply by |x^{2k+1}| per block, so float64
    overflows after a handful of blocks; every representable block is checked.
    """
    name = "divergence_pattern"
    _need_recorded(trace)
    c = getattr(trace.rule, "c", 1.0)
    xs = trace.xs.ravel()
    viol, its = [], []
    if trace.status != "diverged":
        viol.append(math.inf)
        its.append(trace.iters)
    n = xs.size
    blocks = 0
    pairs = 0
    for k in range(0, (n - 1) // 2 + 1):
        i = 2 * k
        if i + 1 >= n or not (np.isfinite(xs[i]) and np.isfinite(xs[i + 1])):
            break
        pairs += 1
        viol.append(0.0 if np.sign(xs[i]) == np.sign(xs[i + 1]) else math.inf)
        its.append(i)
        if i + 2 >= n:
            break
        pairs += 1
        viol.append(0.0 if np.sign(xs[i + 2]) != np.sign(xs[i]) else math.inf)
        its.append(i + 1)
        viol.append(2.0 * abs(xs[i + 1]) - abs(xs[i + 2]))
        its.append(i + 2)
        viol.append(abs(xs[i]) - abs(xs[i + 2]))
        its.append(i + 2)
        if c >= 2.0:
            viol.append(abs(xs[i]) - 2.0 * abs(xs[i + 1]))
            its.append(i + 1)
        blocks += 1
    return _report(name, viol, its, 0.0,
                   f"blocks={blocks}, iterate_pairs={pairs}, c={c:g}")


# ---------------------------------------------------------------------------
# Curvature sweep (cross-check for stronger-form floor/sum failures)
# ---------------------------------------------------------------------------

def trajectory_curvature_sweep(problem, trace: Trace, n_samples: int = 200,
                               seed: int = 0) -> float:
    """Better lower bound on the trajectory-ball smoothness constant.

    Samples secant curvatures between recorded iterates and between random
    convex combinations of them; returns the max together with the run's own
    estimates.
    """
    _need_recorded(trace)
    comp = problem.composite
    xs, gs = trace.xs, trace.grads
    n = gs.shape[0]
    best = trace.max_curvature
    rng = np.random.default_rng(seed)
    for _ in range(n_samples):
        i, j = rng.integers(0, n, size=2)
        if i == j:
            continue
        t = rng.random()
        y = xs[i] + t * (xs[j] - xs[i])
        dx = float(np.linalg.norm(y - xs[i]))
        if dx == 0.0:
            continue
        try:
            gy = comp.f.gradient(y)
        except Exception:
            continue  # left the domain; skip the sample
        best = max(best, float(np.linalg.norm(gy - gs[i])) / dx)
    return best


# ---------------------------------------------------------------------------
# Driver
# ---------------------------------------------------------------------------

def run_certificates(problem, trace: Trace,
                     reference: Optional[ReferenceSolution] = None) -> List[CertificateReport]:
    """All certificates applicable to this (problem, trace) pair.

    Convexity-dependent checks (gradient monotonicity, energy, rate) are
    skipped with a note for nonconvex objectives; the stepsize-recurrence
    facts hold unconditionally and are always evaluated.
    """
    reports = []
    reports.extend(check_stepsize_bounds(trace))
    reports.extend(check_stepsize_sum(trace))
    reports.append(check_subgradient_monotonicity(trace))
    if problem.convex:
        reports.append(check_gradient_monotonicity(trace))
        if reference is not None:
            reports.append(check_energy(trace, reference))
            reports.append(check_rate(trace, reference))
    else:
        reports.append(_not_applicable("gradient_monotonicity", "nonconvex objective"))
        reports.append(_not_applicable("energy_decrease", "nonconvex objective"))
        reports.append(_not_applicable("rate_bound", "nonconvex objective"))
    reports.append(check_feasibility(problem, trace))
    return reports
