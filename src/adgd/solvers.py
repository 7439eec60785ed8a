"""Stepsize rules and iteration loops.

All rules share one loop: measure the local curvature from the last two
gradients, pick a stepsize, take a (proximal) gradient step.  The adaptive
rules cap the step by both a growth bound on the ratio theta_k and a bound
derived from the curvature estimate

    L_k = ||grad f(x^k) - grad f(x^{k-1})|| / ||x^k - x^{k-1}||.

The divergent variant keeps only the curvature bound (scaled by c) and is
shipped to demonstrate why the growth bound is not optional.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional, Union

import numpy as np

from .accounting import CSV_COUNTER_FIELDS, Counters, apply_event
from .core import NumericalError

DIVERGENCE_NORM = 1e10
ALPHA_CLAMP = 1e308
MAX_LINESEARCH_TRIALS = 200


class LinesearchStalled(RuntimeError):
    """Backtracking exceeded the trial budget without acceptance."""


class StationaryStart(RuntimeError):
    """The starting point already has zero gradient."""


class StationaryStep(RuntimeError):
    """Zero displacement between consecutive iterates."""


# ---------------------------------------------------------------------------
# Stepsize rules
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AdGD1:
    """min{ sqrt(1 + theta) * alpha_prev, 1 / (sqrt(2) L_k) }."""
    theta0: float = 0.0
    name: str = "adgd1"


@dataclass(frozen=True)
class AdGD2:
    """min{ sqrt(2/3 + theta) * alpha_prev, alpha_prev / sqrt([2 a^2 L^2 - 1]_+) }.

    With a prox-friendly part present this is the adaptive proximal gradient
    method; the stepsize rule is identical.
    """
    theta0: float = 1.0 / 3.0
    name: str = "adgd2"


@dataclass(frozen=True)
class OldAdGD:
    """min{ sqrt(1 + theta) * alpha_prev, 1 / (2 L_k) }."""
    theta0: float = 0.0
    name: str = "oldadgd"


@dataclass(frozen=True)
class FixedStep:
    alpha: float = 1.0
    theta0: float = 1.0

    def __post_init__(self):
        if self.alpha <= 0:
            raise ValueError("fixed stepsize must be positive")

    @property
    def name(self) -> str:
        return "fixed"


@dataclass(frozen=True)
class Armijo:
    """Backtracking from s * alpha_prev with ratio r."""
    s: float = 1.2
    r: float = 0.5
    theta0: float = 1.0

    def __post_init__(self):
        if not self.s > 1:
            raise ValueError("Armijo requires s > 1")
        if not 0 < self.r < 1:
            raise ValueError("Armijo requires r in (0, 1)")

    @property
    def name(self) -> str:
        return f"armijo_s{self.s:g}_r{self.r:g}"


@dataclass(frozen=True)
class BadGD:
    """alpha_k = 1 / (c L_k) with no growth bound; diverges by design."""
    c: float = 1.0
    theta0: float = 0.0

    def __post_init__(self):
        if self.c < 1:
            raise ValueError("BadGD requires c >= 1")

    @property
    def name(self) -> str:
        return f"badgd_c{self.c:g}"


StepsizeRule = Union[AdGD1, AdGD2, OldAdGD, FixedStep, Armijo, BadGD]

GD_RULES = (AdGD1, AdGD2, OldAdGD, FixedStep, Armijo, BadGD)
PROX_RULES = (AdGD2, FixedStep, Armijo)


# ---------------------------------------------------------------------------
# Single-step pieces
# ---------------------------------------------------------------------------

@dataclass
class SolverState:
    """Two-iterate window every stepsize rule reads."""
    k: int
    x_prev: np.ndarray
    x_curr: np.ndarray
    grad_prev: np.ndarray
    grad_curr: np.ndarray
    alpha: float          # alpha_{k-1}: stepsize that produced x_curr
    alpha_prev: float
    theta: float          # theta_{k-1} = alpha / alpha_prev (or the rule's theta0)
    subgrad_curr: Optional[np.ndarray] = None


def curvature_estimate(x_curr, x_prev, grad_curr, grad_prev) -> float:
    """||grad difference|| / ||point difference||; zero if gradients agree.

    Takes flat points.  ``sqrt(d @ d)`` is how numpy's 2-norm of a 1-d float64
    array is computed, so the result matches ``np.linalg.norm`` bit for bit.
    """
    d = np.subtract(x_curr, x_prev)
    dx = math.sqrt(d @ d)
    if dx == 0.0:
        raise StationaryStep("consecutive iterates coincide")
    d = np.subtract(grad_curr, grad_prev)
    return math.sqrt(d @ d) / dx


def stepsize_adgd1(state: SolverState, L_k: float) -> float:
    growth = math.sqrt(1.0 + state.theta) * state.alpha
    curv = math.inf if L_k == 0.0 else 1.0 / (math.sqrt(2.0) * L_k)
    return min(growth, curv)


def stepsize_adgd2(state: SolverState, L_k: float) -> float:
    growth = math.sqrt(2.0 / 3.0 + state.theta) * state.alpha
    t = state.alpha * L_k  # product first: avoids overflow in alpha^2 L^2
    bracket = 2.0 * t * t - 1.0
    curv = math.inf if bracket <= 0.0 else state.alpha / math.sqrt(bracket)
    return min(growth, curv)


def stepsize_old_adgd(state: SolverState, L_k: float) -> float:
    growth = math.sqrt(1.0 + state.theta) * state.alpha
    curv = math.inf if L_k == 0.0 else 1.0 / (2.0 * L_k)
    return min(growth, curv)


def stepsize_badgd(c: float, L_k: float) -> float:
    if L_k == 0.0:
        return ALPHA_CLAMP
    return min(1.0 / (c * L_k), ALPHA_CLAMP)


def recover_subgradient(x_next, x_curr, grad_curr, alpha: float) -> np.ndarray:
    """Subgradient of g at x_next implied by the proximal step.

    From x_next = prox_{alpha g}(x_curr - alpha grad_curr):
    v = (x_curr - x_next)/alpha - grad_curr lies in the subdifferential of g
    at x_next by the prox optimality condition.
    """
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    return (np.asarray(x_curr) - np.asarray(x_next)) / alpha - np.asarray(grad_curr)


def _rule_alpha(rule, state: SolverState, L_k: float) -> float:
    if isinstance(rule, AdGD1):
        return stepsize_adgd1(state, L_k)
    if isinstance(rule, AdGD2):
        return stepsize_adgd2(state, L_k)
    if isinstance(rule, OldAdGD):
        return stepsize_old_adgd(state, L_k)
    if isinstance(rule, BadGD):
        return stepsize_badgd(rule.c, L_k)
    if isinstance(rule, FixedStep):
        return rule.alpha
    raise TypeError(f"rule {rule!r} has no closed-form stepsize")


def _advance(state: SolverState, x_next, grad_next, alpha: float,
             subgrad_next=None) -> SolverState:
    return SolverState(
        k=state.k + 1,
        x_prev=state.x_curr,
        x_curr=x_next,
        grad_prev=state.grad_curr,
        grad_curr=grad_next,
        alpha=alpha,
        alpha_prev=state.alpha,
        theta=alpha / state.alpha,
        subgrad_curr=subgrad_next,
    )


def gd_step(state: SolverState, problem, rule, L_k: Optional[float] = None,
            on_event: Optional[Callable] = None) -> SolverState:
    """One gradient step under ``rule``; computes exactly one new gradient."""
    comp = getattr(problem, "composite", problem)
    if not isinstance(rule, (AdGD1, AdGD2, OldAdGD, FixedStep, BadGD)):
        raise TypeError(f"gd_step does not accept rule {rule!r}")
    if L_k is None:
        L_k = curvature_estimate(state.x_curr, state.x_prev,
                                 state.grad_curr, state.grad_prev)
    alpha = _rule_alpha(rule, state, L_k)
    x_next = state.x_curr - alpha * state.grad_curr
    if not np.all(np.isfinite(x_next)) and not isinstance(rule, BadGD):
        raise NumericalError(f"non-finite iterate at step {state.k}")
    grad_next = _eval_gradient(comp, x_next, on_event) \
        if np.all(np.isfinite(x_next)) else np.full_like(x_next, np.nan)
    return _advance(state, x_next, grad_next, alpha)


def proxgd_step(state: SolverState, problem, rule, L_k: Optional[float] = None,
                on_event: Optional[Callable] = None) -> SolverState:
    """One proximal gradient step; updates the recovered subgradient."""
    comp = getattr(problem, "composite", problem)
    if not isinstance(rule, PROX_RULES):
        raise TypeError(f"proxgd_step does not accept rule {rule!r}")
    if isinstance(rule, Armijo):
        raise TypeError("use armijo_search for backtracking steps")
    if L_k is None:
        L_k = curvature_estimate(state.x_curr, state.x_prev,
                                 state.grad_curr, state.grad_prev)
    alpha = _rule_alpha(rule, state, L_k)
    x_next = _eval_prox(comp, alpha, state.x_curr - alpha * state.grad_curr, on_event)
    if not np.all(np.isfinite(x_next)):
        raise NumericalError(f"non-finite iterate at step {state.k}")
    v_next = recover_subgradient(x_next, state.x_curr, state.grad_curr, alpha)
    grad_next = _eval_gradient(comp, x_next, on_event)
    return _advance(state, x_next, grad_next, alpha, subgrad_next=v_next)


def _eval_gradient(comp, x, on_event):
    if on_event is not None:
        on_event("gradient")
    return comp.f.gradient(x)


def _eval_value(comp, x, on_event):
    if on_event is not None:
        on_event("value")
    return float(comp.f.value(x))


def _eval_prox(comp, alpha, z, on_event):
    if on_event is not None:
        on_event("prox")
    return comp.g.prox(alpha, z)


def armijo_search(state: SolverState, problem, s: float, r: float,
                  f_curr: Optional[float] = None,
                  on_event: Optional[Callable] = None):
    """Backtracking from s * alpha_prev: accept the first candidate with

        f(y) <= f(x) + <grad f(x), y - x> + ||y - x||^2 / (2 alpha).

    Returns (alpha, x_next, f_next, ls_evals) where ls_evals counts the
    trials performed; each trial costs one f evaluation (plus one prox when
    the problem has a prox-friendly part).  The accepted evaluation is the
    reusable one.
    """
    comp = getattr(problem, "composite", problem)
    prox_run = comp.has_prox_part
    x, g = state.x_curr, state.grad_curr
    if f_curr is None:
        f_curr = _eval_value(comp, x, on_event)
    for i in range(MAX_LINESEARCH_TRIALS + 1):
        alpha = s * (r ** i) * state.alpha
        z = x - alpha * g
        y = _eval_prox(comp, alpha, z, on_event) if prox_run else z
        f_y = _eval_value(comp, y, on_event)
        d = y - x
        if f_y <= f_curr + float(g @ d) + float(d @ d) / (2.0 * alpha):
            return alpha, y, f_y, i + 1
    raise LinesearchStalled(
        f"no acceptable stepsize within {MAX_LINESEARCH_TRIALS} backtracking trials")


# ---------------------------------------------------------------------------
# Initial stepsize
# ---------------------------------------------------------------------------

ALPHA0_LOW = 1.0 / math.sqrt(2.0)
ALPHA0_HIGH = 2.0


def initial_stepsize_search(problem, x0=None, cap: float = 1e8,
                            on_event: Optional[Callable] = None) -> float:
    """Pick alpha0 with alpha0 * L_1(alpha0) in [1/sqrt(2), 2].

    L_1 is measured between x0 and the point the first update would produce
    with the candidate alpha0 (through the prox for composite problems).
    Geometric search with factor 10, refined by log-space bisection when a
    factor-10 jump leaps over the target window; returns ``cap`` for
    degenerate problems whose product never reaches the window from below.
    """
    comp = getattr(problem, "composite", problem)
    if x0 is None:
        x0 = getattr(problem, "x0", None)
        if x0 is None:
            raise ValueError("x0 required when passing a bare composite problem")
    x0 = np.asarray(x0, dtype=np.float64).ravel()
    g0 = _eval_gradient(comp, x0, on_event)
    alpha0, _ = _alpha0_search(comp, x0, g0, cap, on_event)
    return alpha0


def _alpha0_search(comp, x0, g0, cap, on_event):
    if float(np.linalg.norm(g0)) == 0.0:
        raise StationaryStart("gradient at x0 is zero; already stationary")
    prox_run = comp.has_prox_part

    def product(alpha):
        z = x0 - alpha * g0
        y = _eval_prox(comp, alpha, z, on_event) if prox_run else z
        dx = float(np.linalg.norm(y - x0))
        if dx == 0.0:
            return 0.0
        g_y = _eval_gradient(comp, y, on_event)
        return alpha * float(np.linalg.norm(g_y - g0)) / dx

    def bisect(lo, hi):
        # product(lo) < LOW < HIGH < product(hi); the window is wide enough
        # that log-bisection lands inside it fast
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

    alpha = min(1.0, cap)
    p = product(alpha)
    if ALPHA0_LOW <= p <= ALPHA0_HIGH:
        return alpha, p
    if p < ALPHA0_LOW:
        while alpha < cap:
            nxt = min(10.0 * alpha, cap)
            p_nxt = product(nxt)
            if ALPHA0_LOW <= p_nxt <= ALPHA0_HIGH:
                return nxt, p_nxt
            if p_nxt > ALPHA0_HIGH:
                mid = bisect(alpha, nxt)
                return mid, None
            alpha = nxt
        return cap, None  # degenerate: product stays below the window
    for _ in range(600):
        nxt = alpha / 10.0
        p_nxt = product(nxt)
        if ALPHA0_LOW <= p_nxt <= ALPHA0_HIGH:
            return nxt, p_nxt
        if p_nxt < ALPHA0_LOW:
            mid = bisect(nxt, alpha)
            return mid, None
        alpha = nxt
    raise NumericalError("initial stepsize search failed to terminate")


# ---------------------------------------------------------------------------
# Full runs
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RunConfig:
    max_iter: int = 1000
    grad_tol: float = 1e-8
    alpha0: Union[float, str] = "search"   # a float, or "search"
    alpha0_cap: float = 1e8
    record_trace: bool = True   # keep iterates/gradients (certificate inputs)
    record_rows: bool = True    # keep per-step scalars (CSV rows)
    seed: int = 0
    curvature_override: Optional[float] = None
    x0: Optional[np.ndarray] = None
    divergence_norm: float = DIVERGENCE_NORM

    def __post_init__(self):
        if self.max_iter < 1:
            raise ValueError("max_iter must be at least 1")
        if not self.grad_tol > 0:
            raise ValueError("grad_tol must be positive")
        if isinstance(self.alpha0, str) and self.alpha0 != "search":
            raise ValueError("alpha0 must be a positive float or 'search'")
        if isinstance(self.alpha0, (int, float)) and not self.alpha0 > 0:
            raise ValueError("alpha0 must be positive")
        if self.record_trace and not self.record_rows:
            raise ValueError("record_trace requires record_rows")


@dataclass
class Trace:
    """Per-iteration record of a run plus enough context for certificates.

    Step arrays are indexed by the step k that produced x^{k+1}; iterate
    arrays (F_values, xs, grads, subgrads) cover x^0 .. x^K.  The iterate
    arrays are populated only when the run recorded its trajectory.
    """

    problem_label: str
    problem_kind: str
    rule_name: str
    prox_run: bool
    theta0: float
    alpha0: float
    alpha0_searched: bool
    grad_tol: float
    status: str = "max_iter"
    iters: int = 0
    alphas: np.ndarray = None
    thetas: np.ndarray = None
    curvatures: np.ndarray = None
    step_norms: np.ndarray = None
    F_steps: np.ndarray = None          # F(x^{k+1}) per step
    counter_rows: np.ndarray = None     # (iters, 7) ints, COUNTER_FIELDS order
    counters: Counters = field(default_factory=Counters)
    F_values: np.ndarray = None         # F at every iterate incl. x^0
    x_final: np.ndarray = None
    F_final: float = math.nan
    F_initial: float = math.nan
    final_residual: float = math.nan    # ||x^{K}-x^{K-1}|| / alpha_{K-1}
    xs: np.ndarray = None
    grads: np.ndarray = None
    subgrads: np.ndarray = None

    CSV_HEADER = ("iter,alpha,theta,Lk,F,step_norm,"
                  "grad_evals,func_evals,prox_evals,svd_count,eig_count,projection_count")

    def rows(self):
        """Yield CSV rows in header order."""
        if self.alphas is None:
            raise ValueError("run did not record rows; rerun with record_rows=True")
        ncsv = len(CSV_COUNTER_FIELDS)
        for k in range(len(self.alphas)):
            yield (k, self.alphas[k], self.thetas[k], self.curvatures[k],
                   self.F_steps[k], self.step_norms[k],
                   *(int(c) for c in self.counter_rows[k][:ncsv]))

    @property
    def max_curvature(self) -> float:
        """Largest curvature estimate the run consumed (reference L)."""
        if self.curvatures is None or self.curvatures.size < 2:
            return 0.0
        return float(np.max(self.curvatures[1:]))


def _objective(comp, x, f_val=None) -> float:
    """Bookkeeping objective for the trace; never counted."""
    gx = comp.g.value(x)
    if gx == np.inf:
        return math.inf
    fx = comp.f.value(x) if f_val is None else f_val
    return float(fx) + float(gx)


def run_solver(problem, rule: StepsizeRule, config: RunConfig) -> Trace:
    """Run ``rule`` on ``problem`` until the gradient-mapping surrogate

        ||x^{k+1} - x^k|| / alpha_k <= grad_tol

    or the iteration budget is hit.  Iterate norms above the configured
    divergence threshold mark the run diverged; non-finite iterates under any
    rule other than the divergent variant raise a hard error with the step
    index.
    """
    comp = getattr(problem, "composite", problem)
    prox_run = comp.has_prox_part
    allowed = PROX_RULES if prox_run else GD_RULES
    if not isinstance(rule, allowed):
        raise TypeError(f"rule {rule!r} is not valid for this problem")

    counters = Counters()
    cost_model = comp.cost_model

    def on_event(kind):
        apply_event(counters, cost_model, kind)

    x0 = np.array(getattr(problem, "x0", None) if config.x0 is None else config.x0,
                  dtype=np.float64)
    comp.f.check_dim(x0)
    if prox_run and comp.g.value(x0) == np.inf:
        raise ValueError("starting point is not in the domain of g")

    armijo = isinstance(rule, Armijo)
    f_curr = _eval_value(comp, x0, on_event) if armijo else None
    g0 = _eval_gradient(comp, x0, on_event)
    if armijo:
        on_event("reuse")  # f(x0) work feeds the gradient at the same point

    if isinstance(rule, BadGD):
        alpha0 = 1.0
        searched = False
    elif isinstance(rule, FixedStep):
        alpha0 = rule.alpha
        searched = False
    elif config.alpha0 == "search":
        alpha0, _ = _alpha0_search(comp, x0, g0, config.alpha0_cap, on_event)
        searched = True
    else:
        alpha0 = float(config.alpha0)
        searched = False

    rule_name = "adproxgd" if (prox_run and isinstance(rule, AdGD2)) else rule.name
    trace = Trace(
        problem_label=comp.label,
        problem_kind=getattr(problem, "kind", "custom"),
        rule_name=rule_name,
        prox_run=prox_run,
        theta0=rule.theta0,
        alpha0=alpha0,
        alpha0_searched=searched,
        grad_tol=config.grad_tol,
    )

    alphas, thetas, curvs, norms, F_steps, crows = [], [], [], [], [], []
    F_vals, xs, grads, subgrads = [], [], [], []
    record = config.record_trace
    rows = config.record_rows
    trace.F_initial = _objective(comp, x0, f_val=f_curr)
    if record:
        xs.append(x0.copy())
        grads.append(g0.copy())
        subgrads.append(np.zeros_like(x0))
        F_vals.append(trace.F_initial)

    x_prev, x_curr = None, x0
    g_prev, g_curr = None, g0
    alpha_prev_step = alpha0      # alpha_{k-1} entering the loop body
    theta_prev = rule.theta0
    status = "max_iter"
    F_next = math.nan
    steps_taken = 0

    badgd = isinstance(rule, BadGD)
    # one error state for the whole loop: a diverging rule overflows on purpose
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(config.max_iter):
            if k == 0:
                L_k = 0.0 if config.curvature_override is None else config.curvature_override
                if armijo:
                    alpha_k, x_next, f_next, _ = armijo_search(
                        SolverState(k=0, x_prev=x_curr, x_curr=x_curr, grad_prev=g_curr,
                                    grad_curr=g_curr, alpha=alpha0, alpha_prev=alpha0,
                                    theta=rule.theta0),
                        comp, rule.s, rule.r, f_curr=f_curr, on_event=on_event)
                    theta_k = alpha_k / alpha0
                else:
                    alpha_k = alpha0
                    z = x_curr - alpha_k * g_curr
                    x_next = _eval_prox(comp, alpha_k, z, on_event) if prox_run else z
                    f_next = None
                    theta_k = rule.theta0
            else:
                if config.curvature_override is not None:
                    L_k = config.curvature_override
                else:
                    try:
                        L_k = curvature_estimate(x_curr, x_prev, g_curr, g_prev)
                    except StationaryStep:
                        status = "converged"
                        break
                state = SolverState(k=k, x_prev=x_prev, x_curr=x_curr, grad_prev=g_prev,
                                    grad_curr=g_curr, alpha=alpha_prev_step,
                                    alpha_prev=alpha_prev_step, theta=theta_prev)
                if armijo:
                    alpha_k, x_next, f_next, _ = armijo_search(
                        state, comp, rule.s, rule.r, f_curr=f_curr, on_event=on_event)
                else:
                    alpha_k = _rule_alpha(rule, state, L_k)
                    z = x_curr - alpha_k * g_curr
                    x_next = _eval_prox(comp, alpha_k, z, on_event) if prox_run else z
                    f_next = None
                theta_k = alpha_k / alpha_prev_step

            # ||x_next||^2 serves the finiteness and the divergence test; it is
            # inf for a huge finite iterate, so only then are entries inspected
            sq = x_next @ x_next
            finite = math.isfinite(sq) or bool(np.all(np.isfinite(x_next)))
            if not finite and not badgd:
                raise NumericalError(f"non-finite iterate at step {k} under rule {rule_name}")

            if finite:
                d = x_next - x_curr
                step_norm = math.sqrt(d @ d)
            else:
                step_norm = math.inf
            steps_taken += 1
            trace.final_residual = step_norm / alpha_k
            if rows or not finite:
                F_next = _objective(comp, x_next, f_val=f_next) if finite else math.inf
            if rows:
                alphas.append(alpha_k)
                thetas.append(theta_k)
                curvs.append(L_k)
                norms.append(step_norm)
                F_steps.append(F_next)
                crows.append(counters.snapshot())
            if record:
                xs.append(x_next.copy() if finite else np.array(x_next, dtype=np.float64))
                F_vals.append(F_next)
                if prox_run and finite:
                    subgrads.append(recover_subgradient(x_next, x_curr, g_curr, alpha_k))
                else:
                    subgrads.append(np.zeros_like(x0))

            if not finite or math.sqrt(sq) > config.divergence_norm:
                status = "diverged"
                x_prev, x_curr = x_curr, x_next
                g_prev = g_curr
                g_curr = None
                alpha_prev_step, theta_prev = alpha_k, theta_k
                break

            if step_norm / alpha_k <= config.grad_tol:
                status = "converged"
                x_prev, x_curr = x_curr, x_next
                g_prev = g_curr
                g_curr = None
                alpha_prev_step, theta_prev = alpha_k, theta_k
                break

            x_prev, x_curr = x_curr, x_next
            g_prev = g_curr
            alpha_prev_step, theta_prev = alpha_k, theta_k
            if k == config.max_iter - 1:
                g_curr = None  # budget exhausted: the next gradient is never needed
                continue
            g_curr = _eval_gradient(comp, x_curr, on_event)
            if armijo:
                on_event("reuse")  # accepted trial's work feeds this gradient
                f_curr = f_next
            if record:
                grads.append(g_curr.copy())

    trace.status = status
    trace.iters = steps_taken
    if rows:
        trace.alphas = np.asarray(alphas)
        trace.thetas = np.asarray(thetas)
        trace.curvatures = np.asarray(curvs)
        trace.step_norms = np.asarray(norms)
        trace.F_steps = np.asarray(F_steps)
        trace.counter_rows = np.asarray(crows, dtype=np.int64)
    trace.counters = counters
    trace.x_final = np.array(x_curr, dtype=np.float64)
    trace.F_final = F_next if (rows or not np.all(np.isfinite(x_curr))) \
        else _objective(comp, x_curr)
    if record:
        if g_curr is None and np.all(np.isfinite(x_curr)):
            grads.append(comp.f.gradient(x_curr))  # diagnostics only, uncounted
        trace.F_values = np.asarray(F_vals)
        trace.xs = np.asarray(xs)
        trace.grads = np.asarray(grads)
        trace.subgrads = np.asarray(subgrads) if prox_run else np.zeros_like(trace.xs)
    return trace
