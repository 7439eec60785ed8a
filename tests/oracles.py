"""Independent brute-force oracles shared by unit and acceptance tests."""

import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from adgd.core import NumericalError, SmoothFunction
from adgd.diagnostics import BreakpointRecord, CertificateReport
from adgd.solvers import DIVERGENCE_NORM, AdGD2


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


@dataclass(frozen=True)
class FixedCurvature(AdGD2):
    """AdGD2 told a constant curvature ``L`` in place of its estimate L_k.

    With alpha_0 = 1/L the curvature bound alpha / sqrt(2 alpha^2 L^2 - 1) is
    1/L at every step and never exceeds the growth bound, so the method
    reduces to gradient descent with stepsize 1/L.
    """
    L: float

    def stepsize(self, alpha_prev: float, theta_prev: float, L: float) -> float:
        return super().stepsize(alpha_prev, theta_prev, self.L)


def with_f_scaled(inst, c):
    """``inst`` with f scaled by c; its prox part is kept as it is."""
    f = inst.composite.f
    fc = dataclasses.replace(f, value=lambda x: c * f.value(x),
                             gradient=lambda x: c * f.gradient(x))
    return dataclasses.replace(inst, composite=dataclasses.replace(inst.composite, f=fc))


def first_difference(a, b):
    """None when ``a == b``, else where they first differ: a line number with
    the two lines, or for two {name: bytes} dicts of files, the name too.

    ``assert first_difference(a, b) is None`` fails at once with one line.  A
    bare ``==`` on whole CSV texts makes pytest diff them, which over a few
    hundred rows takes minutes.
    """
    if a == b:
        return None
    if isinstance(a, dict):
        if a.keys() != b.keys():
            return f"names {sorted(a)} != {sorted(b)}"
        return next(f"{name}: {first_difference(a[name], b[name])}"
                    for name in a if a[name] != b[name])
    la, lb = a.splitlines(), b.splitlines()
    for i, (x, y) in enumerate(zip(la, lb)):
        if x != y:
            return f"line {i + 1}: {x!r} != {y!r}"
    if len(la) == len(lb):
        return "the same lines, with other line ends"
    return f"{len(la)} != {len(lb)} lines, the same up to the shorter's end"


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


# ---------------------------------------------------------------------------
# Per-step certificate forms: the reference the array forms in
# adgd.diagnostics are compared against, one Python step at a time
# ---------------------------------------------------------------------------

SQRT2 = math.sqrt(2.0)
SQRT3 = math.sqrt(3.0)
SQRT5 = math.sqrt(5.0)


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


def _need_recorded(trace):
    if trace.xs is None or trace.grads is None:
        raise ValueError("trace was not recorded with iterates; rerun with record_trace=True")


def _need_reference(reference):
    if reference is None:
        raise ValueError("reference required")


def loop_gradient_monotonicity(trace, tol: float = 1e-9) -> CertificateReport:
    """<grad^k, grad^{k-1}> <= ||grad^{k-1}||^2 (+ tol scaling) at GD iterates."""
    name = "gradient_monotonicity"
    if trace.prox_run:
        return _not_applicable(name, "proximal run; see subgradient_monotonicity")
    _need_recorded(trace)
    g = trace.grads
    viol, its = [], []
    for k in range(1, g.shape[0]):
        sq = float(g[k - 1] @ g[k - 1])
        viol.append(float(g[k] @ g[k - 1]) - sq - tol * (1.0 + sq))
        its.append(k)
    return _report(name, viol, its, tol)


def loop_subgradient_monotonicity(trace, tol: float = 1e-9) -> CertificateReport:
    """||grad^k + v^{k+1}|| <= ||grad^k + v^k|| (+ tol) at proximal iterates."""
    name = "subgradient_monotonicity"
    if not trace.prox_run:
        return _not_applicable(name, "no prox-friendly part")
    _need_recorded(trace)
    g, v = trace.grads, trace.subgrads
    n = min(g.shape[0], v.shape[0]) - 1
    viol, its = [], []
    for k in range(n):
        lhs = float(np.linalg.norm(g[k] + v[k + 1]))
        rhs = float(np.linalg.norm(g[k] + v[k]))
        viol.append(lhs - rhs - tol)
        its.append(k)
    return _report(name, viol, its, tol)


def loop_stepsize_bounds(trace) -> list:
    """Both per-step bounds the adaptive rules promise.

    Growth bound: alpha_k <= sqrt(c0 + theta_{k-1}) alpha_{k-1}; curvature
    bound: alpha_k L_k <= 1/sqrt(2) (first rule) or
    alpha_k^2 L_k^2 - alpha_k^2 / (2 alpha_{k-1}^2) <= 1/2 (second rule).
    """
    if trace.rule.kind not in ("adgd1", "adgd2"):
        return [_not_applicable("stepsize_bounds", f"rule {trace.rule_name}")]
    a, th, L = trace.alphas, trace.thetas, trace.curvatures
    grow_viol, curv_viol, its = [], [], []
    first_rule = trace.rule.kind == "adgd1"
    c0 = 1.0 if first_rule else 2.0 / 3.0
    for k in range(1, trace.iters):
        its.append(k)
        grow_viol.append(a[k] - math.sqrt(c0 + th[k - 1]) * a[k - 1] * (1 + 1e-12))
        if first_rule:
            curv_viol.append(a[k] * L[k] - 1.0 / SQRT2 - 1e-10)
        else:
            t = a[k] * L[k]
            curv_viol.append(t * t - (a[k] / a[k - 1]) ** 2 / 2.0 - 0.5 - 1e-10)
    return [
        _report("stepsize_growth_bound", grow_viol, its, 1e-12),
        _report("stepsize_curvature_bound", curv_viol, its, 1e-10),
    ]


def _loop_second_bound_binds(trace, k: int) -> bool:
    # the curvature bound was the smaller of the two candidates at step k
    a, th, L = trace.alphas, trace.thetas, trace.curvatures
    first = math.sqrt(2.0 / 3.0 + th[k - 1]) * a[k - 1]
    t = a[k - 1] * L[k]
    bracket = 2.0 * t * t - 1.0
    second = math.inf if bracket <= 0 else a[k - 1] / math.sqrt(bracket)
    return second <= first


def loop_stepsize_sum(trace, L_ref=None) -> list:
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

    # AM-GM pair bound whenever the curvature bound was the binding one
    pair_viol, pair_its = [], []
    for k in range(1, trace.iters):
        if L[k] > 0 and _loop_second_bound_binds(trace, k):
            pair_viol.append(2.0 / L[k] * (1 - 1e-9) - (a[k - 1] + a[k]))
            pair_viol.append(1.0 / (SQRT2 * L[k]) * (1 - 1e-9) - a[k])
            pair_its.extend([k, k])
    out.append(_report("am_gm_pair_bound", pair_viol, pair_its, 1e-9))

    # small-ratio branch facts: theta_k < 1/3 forces the curvature bound and
    # large recent steps relative to 1/L_k
    br_viol, br_its = [], []
    for k in range(1, trace.iters):
        if th[k] < 1.0 / 3.0 and L[k] > 0:
            if not _loop_second_bound_binds(trace, k):
                br_viol.append(math.inf)
                br_its.append(k)
                continue
            br_viol.append(SQRT5 * (1 - 1e-9) - a[k - 1] * L[k])
            br_its.append(k)
            if k >= 2:
                br_viol.append(1.5 * (1 - 1e-9) - a[k - 2] * L[k])
                br_its.append(k)
            if k >= 3:
                br_viol.append(1.0 * (1 - 1e-9) - a[k - 3] * L[k])
                br_its.append(k)
    out.append(_report("small_theta_branch", br_viol, br_its, 1e-9))

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
    rec = loop_detect_breakpoints(trace, L_ref)
    win_viol, win_its = [], []
    for m in rec.indices:
        if m - 2 >= 0 and m + 2 <= trace.iters - 1:
            win_viol.append(5.0 / L_ref * (1 - 1e-9) - float(np.sum(a[m - 2:m + 3])))
            win_its.append(m)
    out.append(_report("breakpoint_window_sum", win_viol, win_its, 1e-9,
                       f"{len(rec.indices)} breakpoint(s)"))
    return out


def loop_detect_breakpoints(trace, L_ref=None) -> BreakpointRecord:
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
    is_bp = [False] * trace.iters
    indices = []
    for m in range(1, trace.iters):
        if th[m] < 1.0 / 3.0 and a[m] < 1.0 / L_ref:
            is_bp[m] = True
            indices.append(m)
    violations = []
    for k in range(3, trace.iters):
        if a[k] < 1.0 / (SQRT2 * L_ref):
            if is_bp[k - 1] or (a[k - 1] < a[k] and is_bp[k - 2]):
                continue
            violations.append(k)
    return BreakpointRecord(indices, violations)


def loop_energy_gd(trace, reference) -> CertificateReport:
    """Per-step decrease of the unconstrained energy

        ||x^{k+1}-x*||^2 + ||x^{k+1}-x^k||^2 + a_k (2+3 th_k)(f(x^k)-f*)
        <= ||x^k-x*||^2 + ||x^k-x^{k-1}||^2 + 3 a_k th_k (f(x^{k-1})-f*).
    """
    name = "energy_decrease_gd"
    if trace.rule.kind != "adgd2" or trace.prox_run:
        return _not_applicable(name, f"rule {trace.rule_name}, prox={trace.prox_run}")
    _need_reference(reference)
    _need_recorded(trace)
    xs, F, a, th = trace.xs, trace.F_values, trace.alphas, trace.thetas
    xr, Fr = reference.x_star, reference.F_star
    dist2 = np.sum((xs - xr[None, :]) ** 2, axis=1)
    lhs, rhs, its = [], [], []
    for k in range(1, trace.iters):
        lhs.append(dist2[k + 1] + trace.step_norms[k] ** 2
                   + a[k] * (2 + 3 * th[k]) * (F[k] - Fr))
        rhs.append(dist2[k] + trace.step_norms[k - 1] ** 2
                   + 3 * a[k] * th[k] * (F[k - 1] - Fr))
        its.append(k)
    if not lhs:
        return _report(name, [], [], 0.0)
    tol = 1e-7 * (1.0 + abs(rhs[0])) + 2.0 * reference.tolerance
    viol = [l - r - tol for l, r in zip(lhs, rhs)]
    return _report(name, viol, its, tol)


def loop_energy_prox(trace, reference) -> CertificateReport:
    """Proximal energy decrease with the recovered subgradients:

        ||x^{k+1}-x*||^2 + a_k^2 ||S^k||^2 + a_k (2+3 th_k)(F(x^k)-F*)
        <= ||x^k-x*||^2 + a_{k-1}^2 ||S^{k-1}||^2 + 3 a_k th_k (F(x^{k-1})-F*),

    where S^k = grad f(x^k) + v^k and v^0 = 0.
    """
    name = "energy_decrease_prox"
    if trace.rule.kind != "adgd2":
        return _not_applicable(name, f"rule {trace.rule_name}")
    _need_reference(reference)
    _need_recorded(trace)
    xs, F, a, th = trace.xs, trace.F_values, trace.alphas, trace.thetas
    S = trace.subgrads[: trace.grads.shape[0]]
    S += trace.grads
    S2 = np.sum(S * S, axis=1)
    xr, Fr = reference.x_star, reference.F_star
    dist2 = np.sum((xs - xr[None, :]) ** 2, axis=1)
    lhs, rhs, its = [], [], []
    for k in range(1, trace.iters):
        lhs.append(dist2[k + 1] + a[k] ** 2 * S2[k]
                   + a[k] * (2 + 3 * th[k]) * (F[k] - Fr))
        rhs.append(dist2[k] + a[k - 1] ** 2 * S2[k - 1]
                   + 3 * a[k] * th[k] * (F[k - 1] - Fr))
        its.append(k)
    if not lhs:
        return _report(name, [], [], 0.0)
    tol = 1e-7 * (1.0 + abs(rhs[0])) + 2.0 * reference.tolerance
    viol = [l - r - tol for l, r in zip(lhs, rhs)]
    return _report(name, viol, its, tol)


def loop_anchored_radius_sq(trace, reference) -> float:
    """R^2 = ||x^0-x*||^2 + 2 a_0^2 ||S^0||^2 + a_0 (F(x^0)-F*), where S^0 is
    grad f(x^0), as v^0 = 0."""
    _need_recorded(trace)
    S0 = trace.grads[0]
    return (float(np.sum((trace.xs[0] - reference.x_star) ** 2))
            + 2.0 * trace.alphas[0] ** 2 * float(S0 @ S0)
            + trace.alphas[0] * (trace.F_values[0] - reference.F_star))


def loop_rate(trace, reference, rel_tol: float = 1e-6) -> CertificateReport:
    """Running-min bound  min_{i<=k}(F(x^i)-F*) <= R^2 / (2 sum_{i=1}^k a_i)."""
    name = "rate_bound"
    if trace.rule.kind != "adgd2":
        return _not_applicable(name, f"rule {trace.rule_name}")
    _need_reference(reference)
    _need_recorded(trace)
    R2 = loop_anchored_radius_sq(trace, reference)
    F, a = trace.F_values, trace.alphas
    gaps = F[1:] - reference.F_star
    viol, its = [], []
    for k in range(1, trace.iters):
        run_min = float(np.min(gaps[:k]))
        bound = R2 / (2.0 * float(np.sum(a[1:k + 1])))
        viol.append(run_min - bound * (1 + rel_tol) - 2.0 * reference.tolerance)
        its.append(k)
    return _report(name, viol, its, rel_tol,
                   f"R^2={R2:.3e}")


def two_loop_alpha0_search(comp, x0, g0, on_event):
    """The initial stepsize search written as two mirrored loops, one up (x10
    to the cap) and one down (/10), each with its own prox branch: the
    reference for the single-loop ``adgd.solvers._alpha0_search``."""
    from adgd.solvers import ALPHA0_CAP, ALPHA0_HIGH, ALPHA0_LOW

    prox_run = comp.has_prox_part

    def product(alpha):
        z = x0 - alpha * g0
        if prox_run:
            on_event("prox")
            y = comp.g.prox(alpha, z)
        else:
            y = z
        dx = float(np.linalg.norm(y - x0))
        if dx == 0.0:
            return 0.0
        on_event("gradient")
        g_y = comp.f.gradient(y)
        return alpha * float(np.linalg.norm(g_y - g0)) / dx

    def bisect(lo, hi):
        for _ in range(200):
            mid = math.sqrt(lo * hi)
            p = product(mid)
            if ALPHA0_LOW <= p <= ALPHA0_HIGH:
                return mid
            if p < ALPHA0_LOW:
                lo = mid
            else:
                hi = mid
        raise NumericalError("initial stepsize bisection failed to land in the window")

    alpha = 1.0
    p = product(alpha)
    if ALPHA0_LOW <= p <= ALPHA0_HIGH:
        return alpha
    if p < ALPHA0_LOW:
        while alpha < ALPHA0_CAP:
            nxt = min(10.0 * alpha, ALPHA0_CAP)
            p_nxt = product(nxt)
            if ALPHA0_LOW <= p_nxt <= ALPHA0_HIGH:
                return nxt
            if p_nxt > ALPHA0_HIGH:
                return bisect(alpha, nxt)
            alpha = nxt
        return ALPHA0_CAP
    for _ in range(600):
        nxt = alpha / 10.0
        p_nxt = product(nxt)
        if ALPHA0_LOW <= p_nxt <= ALPHA0_HIGH:
            return nxt
        if p_nxt < ALPHA0_LOW:
            return bisect(nxt, alpha)
        alpha = nxt
    raise NumericalError("initial stepsize search failed to terminate")


# per problem kind: (metric name, gradient weight or None for a named column)
_LADDER = {
    "mle": ("projections", None),
    "curve": ("projections", None),
    "lrmc": ("svds", None),
    "nmf": ("matmul_units", 3.0),
    "dual_entropy": ("matvec_units", 2.0),
}


def ladder_essential_units_rows(kind: str, counter_rows) -> np.ndarray:
    """Essential-operation totals of (n, 7) counter rows, picked by metric name
    and column index: the reference for the weight rows of
    ``adgd.accounting.essential_units_rows``."""
    rows = np.asarray(counter_rows, dtype=np.float64).reshape(-1, 7)
    grad, func, svd, proj, reused = rows[:, 0], rows[:, 1], rows[:, 3], rows[:, 5], rows[:, 6]
    name, grad_weight = _LADDER.get(kind, ("oracle_calls", None))
    if name == "projections":
        return proj
    if name == "svds":
        return svd
    net = func - reused
    if grad_weight is not None:
        return grad_weight * grad + net
    return grad + net


# ---------------------------------------------------------------------------
# The adaptive loop as the README states it
# ---------------------------------------------------------------------------

def textbook_adaptive_run(inst, rule_kind: str, alpha0: float, steps: int, grad_tol: float):
    """The two-iterate recurrence of README, one line per formula, for the
    rules ``adgd1``, ``adgd2`` and ``oldadgd``: (alphas, thetas, Ls, x_K).

    Step 0 takes alpha_0 and theta_0 (1/3 for adgd2, else 0) and reports
    L_0 = 0.  Each formula is written in the loop's documented expression
    order: alpha_{k-1} L_k before its square, the growth factor's sum before
    its root.  The run stops after ``steps`` steps or once
    ||x^{k+1} - x^k|| / alpha_k <= grad_tol.
    """
    f, g = inst.composite.f, inst.composite.g
    theta0, growth_c, curv_c = {"adgd1": (0.0, 1.0, math.sqrt(2.0)),
                                "adgd2": (1.0 / 3.0, 2.0 / 3.0, None),
                                "oldadgd": (0.0, 1.0, 2.0)}[rule_kind]
    x = np.array(inst.x0, dtype=np.float64)
    grad = f.gradient(x)
    x_prev = grad_prev = None
    alphas, thetas, Ls = [], [], []
    for k in range(steps):
        if k == 0:
            L, alpha, theta = 0.0, alpha0, theta0
        else:
            a = alphas[-1]
            L = float(np.linalg.norm(grad - grad_prev) / np.linalg.norm(x - x_prev))
            growth = math.sqrt(growth_c + thetas[-1]) * a
            if curv_c is not None:       # 1 / (c L_k)
                curv = math.inf if L == 0.0 else 1.0 / (curv_c * L)
            else:                        # a / sqrt([2 (a L_k)^2 - 1]_+)
                t = a * L
                bracket = 2.0 * t * t - 1.0
                curv = math.inf if bracket <= 0.0 else a / math.sqrt(bracket)
            alpha = min(growth, curv)
            theta = alpha / a
        z = x - alpha * grad
        x_prev, x = x, z if g.is_zero else g.prox(alpha, z)
        alphas.append(alpha)
        thetas.append(theta)
        Ls.append(L)
        if np.linalg.norm(x - x_prev) / alpha <= grad_tol:
            break
        grad_prev, grad = grad, f.gradient(x)
    return np.array(alphas), np.array(thetas), np.array(Ls), x


# ---------------------------------------------------------------------------
# The divergence test as a per-step norm
# ---------------------------------------------------------------------------

def per_step_norm_run(inst, alpha: float, steps: int, grad_tol: float):
    """Gradient descent at the fixed stepsize ``alpha`` on a smooth instance,
    with the loop's stop tests written out: a non-finite iterate raises
    ``NumericalError`` naming its step, ``||x^{k+1}|| > DIVERGENCE_NORM`` taken
    at every step is ``diverged``, and ``||x^{k+1} - x^k|| / alpha <= grad_tol``
    is ``converged``.  Returns (status, iterations)."""
    f = inst.composite.f
    x = np.array(inst.x0, dtype=np.float64)
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(steps):
            x_prev, x = x, x - alpha * f.gradient(x)
            if not np.all(np.isfinite(x)):
                raise NumericalError(f"non-finite iterate at step {k}")
            if np.linalg.norm(x) > DIVERGENCE_NORM:
                return "diverged", k + 1
            if np.linalg.norm(x - x_prev) / alpha <= grad_tol:
                return "converged", k + 1
    return "max_iter", steps


# ---------------------------------------------------------------------------
# The Armijo baseline as the textbook states it
# ---------------------------------------------------------------------------

def textbook_armijo_run(inst, s: float, r: float, alpha0: float, steps: int, grad_tol: float,
                        max_trials: int):
    """Backtracking proximal gradient from alpha_{-1} = ``alpha0``: step k tries
    alpha = s r^i alpha_{k-1} for i = 0, 1, ..., max_trials - 1 and accepts the
    first y = prox_{alpha g}(x - alpha grad f(x)) with

        f(y) <= f(x) + <grad f(x), y - x> + ||y - x||^2 / (2 alpha),

    each term as ``armijo_search`` writes it.  The run stops after ``steps``
    steps, once ||x^{k+1} - x^k|| / alpha_k <= grad_tol, or stalled at a step
    that accepts no trial.  Returns (alphas, trials per step, F(x^{k+1}) per
    step, x_K, status)."""
    f, g = inst.composite.f, inst.composite.g
    x = np.array(inst.x0, dtype=np.float64)
    f_x = float(f.value(x))
    alpha_prev = alpha0
    alphas, trials, F = [], [], []
    for k in range(steps):
        grad = f.gradient(x)
        for i in range(max_trials):
            alpha = s * (r ** i) * alpha_prev
            z = x - alpha * grad
            y = z if g.is_zero else g.prox(alpha, z)
            f_y = float(f.value(y))
            d = y - x
            if f_y <= f_x + float(grad @ d) + float(d @ d) / (2.0 * alpha):
                break
        else:
            return np.array(alphas), np.array(trials), np.array(F), x, "stalled"
        alphas.append(alpha)
        trials.append(i + 1)
        F.append(f_y + float(g.value(y)))
        x_prev, x, f_x, alpha_prev = x, y, f_y, alpha
        if np.linalg.norm(x - x_prev) / alpha <= grad_tol:
            return np.array(alphas), np.array(trials), np.array(F), x, "converged"
    return np.array(alphas), np.array(trials), np.array(F), x, "max_iter"
