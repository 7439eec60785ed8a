"""Stepsize rules and the iteration loop.

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
import operator
from dataclasses import dataclass, field
from typing import Callable, Optional, Union

import numpy as np

from .accounting import COUNTER_FIELDS, Counters, apply_event
from .core import NumericalError, evaluate_composite

DIVERGENCE_NORM = 1e10
ALPHA_CLAMP = 1e308
MAX_LINESEARCH_TRIALS = 200


# ---------------------------------------------------------------------------
# Stepsize rules
# ---------------------------------------------------------------------------

class StepsizeRule:
    """What the loop asks of a rule.

    ``kind`` names the rule in configs and run metadata, ``label`` in plot
    legends; the dataclass fields of a subclass are its parameters.  Every
    rule but the linesearch one has ``stepsize(alpha_prev, theta_prev, L)``:
    alpha_k from alpha_{k-1}, theta_{k-1} and the curvature estimate L_k.
    """
    kind = ""
    theta0 = 0.0             # theta_0, which the first step reports
    prox_ok = False          # valid with a prox-friendly part
    linesearch = False       # steps come from armijo_search, not stepsize
    fixed_alpha0 = None      # alpha_0 regardless of the run's setting
    divergent = False        # a non-finite iterate ends the run as diverged

    @property
    def name(self) -> str:
        return self.kind

    @property
    def label(self) -> str:
        return self.kind

    def trace_name(self, prox_run: bool) -> str:
        return self.name


@dataclass(frozen=True)
class AdGD1(StepsizeRule):
    """min{ sqrt(1 + theta) * alpha_prev, 1 / (sqrt(2) L_k) }."""
    kind = "adgd1"

    def stepsize(self, alpha_prev: float, theta_prev: float, L: float) -> float:
        growth = math.sqrt(1.0 + theta_prev) * alpha_prev
        curv = math.inf if L == 0.0 else 1.0 / (math.sqrt(2.0) * L)
        return min(growth, curv)


@dataclass(frozen=True)
class AdGD2(StepsizeRule):
    """min{ sqrt(2/3 + theta) * alpha_prev, alpha_prev / sqrt([2 a^2 L^2 - 1]_+) }.

    With a prox-friendly part present this is the adaptive proximal gradient
    method; the stepsize rule is identical.
    """
    kind = "adgd2"
    label = "adaptive"
    theta0 = 1.0 / 3.0
    prox_ok = True

    def stepsize(self, alpha_prev: float, theta_prev: float, L: float) -> float:
        growth = math.sqrt(2.0 / 3.0 + theta_prev) * alpha_prev
        t = alpha_prev * L  # product first: avoids overflow in alpha^2 L^2
        bracket = 2.0 * t * t - 1.0
        curv = math.inf if bracket <= 0.0 else alpha_prev / math.sqrt(bracket)
        if bracket == math.inf:   # 2 t^2 overflowed: the bound's limit, 1 / (sqrt(2) L)
            curv = 1.0 / (math.sqrt(2.0) * L)
        return min(growth, curv)

    def trace_name(self, prox_run: bool) -> str:
        return "adproxgd" if prox_run else self.kind


@dataclass(frozen=True)
class OldAdGD(StepsizeRule):
    """min{ sqrt(1 + theta) * alpha_prev, 1 / (2 L_k) }."""
    kind = "oldadgd"

    def stepsize(self, alpha_prev: float, theta_prev: float, L: float) -> float:
        growth = math.sqrt(1.0 + theta_prev) * alpha_prev
        curv = math.inf if L == 0.0 else 1.0 / (2.0 * L)
        return min(growth, curv)


@dataclass(frozen=True)
class FixedStep(StepsizeRule):
    alpha: float
    kind = "fixed"
    theta0 = 1.0
    prox_ok = True

    def __post_init__(self):
        if not 0 < self.alpha < math.inf:
            raise ValueError("fixed stepsize must be positive and finite")

    @property
    def fixed_alpha0(self) -> float:
        return self.alpha

    def stepsize(self, alpha_prev: float, theta_prev: float, L: float) -> float:
        return self.alpha


@dataclass(frozen=True)
class Armijo(StepsizeRule):
    """Backtracking from s * alpha_prev with ratio r."""
    s: float
    r: float
    kind = "armijo"
    prox_ok = True
    linesearch = True

    def __post_init__(self):
        if not 1 < self.s < math.inf:
            raise ValueError("Armijo requires a finite s > 1")
        if not 0 < self.r < 1:
            raise ValueError("Armijo requires r in (0, 1)")

    @property
    def name(self) -> str:
        return f"armijo_s{self.s:g}_r{self.r:g}"

    @property
    def label(self) -> str:
        return f"({self.s:g}, {self.r:g})"


@dataclass(frozen=True)
class BadGD(StepsizeRule):
    """alpha_k = 1 / (c L_k) with no growth bound; diverges by design."""
    c: float = 1.0
    kind = "badgd"
    fixed_alpha0 = 1.0
    divergent = True

    def __post_init__(self):
        if not 1 <= self.c < math.inf:
            raise ValueError("BadGD requires a finite c >= 1")

    @property
    def name(self) -> str:
        return f"badgd_c{self.c:g}"

    def stepsize(self, alpha_prev: float, theta_prev: float, L: float) -> float:
        if L == 0.0:
            return ALPHA_CLAMP
        cL = self.c * L   # inf past float max: then divide by c and by L in turn
        return min(1.0 / cL if cL < math.inf else 1.0 / self.c / L, ALPHA_CLAMP)


# rule kind -> class, as configs and run metadata name them
RULES = {cls.kind: cls for cls in (AdGD1, AdGD2, OldAdGD, FixedStep, Armijo, BadGD)}
RULES["adproxgd"] = AdGD2


def _norm(d) -> float:
    """``np.linalg.norm`` of a flat float64 array, bit for bit: ``sqrt(d @ d)``.
    Only if ``d @ d`` overflows is a finite d rescaled by max|d| first."""
    sq = d @ d
    if sq == math.inf:
        scale = float(np.max(np.abs(d)))
        if scale < math.inf:
            e = d / scale
            return scale * math.sqrt(e @ e)
    return math.sqrt(sq)


def _eval_gradient(comp, x, on_event):
    on_event("gradient")
    return comp.f.gradient(x)


def _eval_value(comp, x, on_event):
    on_event("value")
    return float(comp.f.value(x))


def _step(comp, x, g, alpha, on_event):
    """The forward-backward step prox_{alpha g}(x - alpha grad f(x)), where
    ``g`` is grad f(x); the gradient step itself without a prox-friendly part."""
    z = x - alpha * g
    if not comp.has_prox_part:
        return z
    on_event("prox")
    return comp.g.prox(alpha, z)


def armijo_search(comp, x, g, alpha_prev: float, s: float, r: float, f_curr: float,
                  on_event: Callable):
    """Backtracking from s * alpha_prev: accept the first candidate with

        f(y) <= f(x) + <grad f(x), y - x> + ||y - x||^2 / (2 alpha),

    where ``g`` is grad f(x) and ``f_curr`` is f(x).  Returns (alpha, x_next,
    f_next, ls_evals) where ls_evals counts the trials performed; each trial
    costs one f evaluation (plus one prox when the problem has a prox-friendly
    part), reported to ``on_event``.  The accepted evaluation is the reusable one.
    When no trial within the budget is accepted, x_next and f_next are None and
    alpha is the last trial's.
    """
    for i in range(MAX_LINESEARCH_TRIALS + 1):
        alpha = s * (r ** i) * alpha_prev
        y = _step(comp, x, g, alpha, on_event)
        f_y = _eval_value(comp, y, on_event)
        d = y - x
        if f_y <= f_curr + float(g @ d) + float(d @ d) / (2.0 * alpha):
            return alpha, y, f_y, i + 1
    return alpha, None, None, MAX_LINESEARCH_TRIALS + 1


# ---------------------------------------------------------------------------
# Initial stepsize
# ---------------------------------------------------------------------------

ALPHA0_LOW = 1.0 / math.sqrt(2.0)
ALPHA0_HIGH = 2.0
ALPHA0_CAP = 1e8


def _alpha0_search(comp, x0, g0, on_event):
    """Pick alpha0 with alpha0 * L_1(alpha0) in [1/sqrt(2), 2], given g0 = grad f(x0).

    L_1 is measured between x0 and the point the first update would produce
    with the candidate alpha0 (through the prox for composite problems).
    Geometric search with factor 10, refined by log-space bisection when a
    factor-10 jump leaps over the target window; returns ``ALPHA0_CAP`` for
    degenerate problems whose product never reaches the window from below,
    such as a zero g0 whose trial steps do not move.
    """
    def product(alpha):
        y = _step(comp, x0, g0, alpha, on_event)
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

    alpha = 1.0
    p = product(alpha)
    if ALPHA0_LOW <= p <= ALPHA0_HIGH:
        return alpha
    up = p < ALPHA0_LOW   # a NaN product searches down
    for _ in range(600):
        if alpha == ALPHA0_CAP:
            return ALPHA0_CAP  # degenerate: product stays below the window
        nxt = min(10.0 * alpha, ALPHA0_CAP) if up else alpha / 10.0
        p = product(nxt)
        if ALPHA0_LOW <= p <= ALPHA0_HIGH:
            return nxt
        if (p > ALPHA0_HIGH) if up else (p < ALPHA0_LOW):   # leapt over the window
            return bisect(*sorted((alpha, nxt)))
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
    record_trace: bool = True   # keep iterates/gradients (certificate inputs)
    record_rows: bool = True    # keep per-step scalars (CSV rows)
    curvature_override: Optional[float] = None
    divergence_norm: float = DIVERGENCE_NORM

    def __post_init__(self):
        # a setting of the wrong type raises TypeError here, not in the loop;
        # a bool is no number here, as in a config
        if isinstance(self.max_iter, bool) or operator.index(self.max_iter) < 1:
            raise ValueError("max_iter must be an integer >= 1")
        if isinstance(self.grad_tol, bool) or not 0 < self.grad_tol < math.inf:
            raise ValueError("grad_tol must be positive and finite")
        if self.alpha0 != "search" and (isinstance(self.alpha0, bool) or not (
                isinstance(self.alpha0, (int, float)) and 0 < self.alpha0 < math.inf)):
            raise ValueError("alpha0 must be a positive finite float or 'search'")
        if self.record_trace and not self.record_rows:
            raise ValueError("record_trace requires record_rows")


@dataclass
class Trace:
    """Per-iteration record of a run plus enough context for certificates.

    Step arrays are indexed by the step k that produced x^{k+1}; iterate
    arrays (xs, grads and the derived F_values, subgrads) cover x^0 .. x^K.
    The iterate arrays exist only when the run recorded its trajectory.
    """

    rule: StepsizeRule
    prox_run: bool
    alpha0: float
    alpha0_searched: bool
    status: str = "max_iter"   # or converged, diverged, stalled
    iters: int = 0
    alphas: np.ndarray = None
    thetas: np.ndarray = None
    curvatures: np.ndarray = None
    step_norms: np.ndarray = None
    F_steps: np.ndarray = None          # F(x^{k+1}) per step
    counter_rows: np.ndarray = None     # (iters, 7) ints, COUNTER_FIELDS order
    counters: Counters = field(default_factory=Counters)
    x_final: np.ndarray = None
    F_final: float = math.nan
    F_initial: float = math.nan
    final_residual: float = math.nan    # ||x^{K}-x^{K-1}|| / alpha_{K-1}
    xs: np.ndarray = None
    grads: np.ndarray = None

    @property
    def rule_name(self) -> str:
        return self.rule.trace_name(self.prox_run)

    @property
    def F_values(self) -> Optional[np.ndarray]:
        """F at every iterate, x^0 included."""
        return None if self.xs is None else np.concatenate(([self.F_initial], self.F_steps))

    @property
    def subgrads(self) -> Optional[np.ndarray]:
        """v^0 = 0, then v^{k+1} = (x^k - x^{k+1}) / alpha_k - grad f(x^k), the
        subgradient of g at x^{k+1} that the prox step implies, computed in place
        on each read; zeros without a prox-friendly part."""
        if self.xs is None:
            return None
        v = np.zeros_like(self.xs)
        if self.prox_run:
            np.subtract(self.xs[:-1], self.xs[1:], out=v[1:])
            v[1:] /= self.alphas[:, None]
            v[1:] -= self.grads[:len(v) - 1]
        return v

    @property
    def max_curvature(self) -> float:
        """Largest curvature estimate the run consumed (reference L)."""
        if self.curvatures is None or self.curvatures.size < 2:
            return 0.0
        return float(np.max(self.curvatures[1:]))


def run_solver(problem, rule: StepsizeRule, config: RunConfig) -> Trace:
    """Run ``rule`` on ``problem`` from ``problem.x0`` until the
    gradient-mapping surrogate

        ||x^{k+1} - x^k|| / alpha_k <= grad_tol

    or the iteration budget is hit.  Iterate norms above the configured
    divergence threshold mark the run diverged; a backtracking search that
    accepts no trial ends it stalled at x^k, after k steps.  Non-finite
    iterates under any rule other than the divergent variant raise a hard
    error with the step index.
    """
    comp = problem.composite
    prox_run = comp.has_prox_part
    if prox_run and not rule.prox_ok:
        raise TypeError(f"rule {rule!r} is not valid for this problem")

    counters = Counters()
    cost = comp.g.cost

    def on_event(kind):
        apply_event(counters, cost, kind)

    x0 = np.array(problem.x0, dtype=np.float64)
    comp.f.check_dim(x0)
    g_x0 = comp.g.value(x0)   # one evaluation serves the domain test and F(x^0)
    if g_x0 == np.inf:
        raise ValueError("starting point is not in the domain of g")

    linesearch = rule.linesearch
    f_curr = _eval_value(comp, x0, on_event) if linesearch else None
    g0 = _eval_gradient(comp, x0, on_event)
    if linesearch:
        on_event("reuse")  # f(x0) work feeds the gradient at the same point

    searched = rule.fixed_alpha0 is None and config.alpha0 == "search"
    if rule.fixed_alpha0 is not None:
        alpha0 = rule.fixed_alpha0
    elif searched:
        alpha0 = _alpha0_search(comp, x0, g0, on_event)
    else:
        alpha0 = float(config.alpha0)

    trace = Trace(rule=rule, prox_run=prox_run, alpha0=alpha0, alpha0_searched=searched,
                  F_initial=float(comp.f.value(x0) if f_curr is None else f_curr)
                  + float(g_x0))

    steps, crows, xs, grads = [], [], [], []   # steps: (alpha, theta, L, step_norm, F)
    record = config.record_trace
    rows = config.record_rows
    if record:
        xs.append(x0.copy())
        grads.append(g0.copy())

    x_curr = x0
    g_prev, g_curr = None, g0
    alpha_prev, theta_prev = alpha0, rule.theta0   # alpha_{k-1}, theta_{k-1}
    override = config.curvature_override
    status = "max_iter"
    F_next = trace.F_initial   # F(x^k) entering step k, when rows are recorded

    # one error state for the whole loop: a diverging rule overflows on purpose
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(config.max_iter):
            if override is not None:
                L_k = override
            elif k == 0:
                L_k = 0.0
            else:   # ||x^k - x^{k-1}|| is the last step's norm, which is
                    # positive: a zero step stopped the run as converged
                L_k = _norm(g_curr - g_prev) / step_norm
            if linesearch:
                alpha_k, x_next, f_next, _ = armijo_search(
                    comp, x_curr, g_curr, alpha_prev, rule.s, rule.r, f_curr, on_event)
                if x_next is None:   # no trial accepted: the run ends at x^k
                    status = "stalled"
                    break
                theta_k = alpha_k / alpha_prev
            else:
                if k == 0:   # the first step takes alpha_0 and reports theta_0
                    alpha_k, theta_k = alpha0, rule.theta0
                else:
                    alpha_k = rule.stepsize(alpha_prev, theta_prev, L_k)
                    theta_k = alpha_k / alpha_prev
                x_next = _step(comp, x_curr, g_curr, alpha_k, on_event)
                f_next = None

            # ||x_next||^2 serves the finiteness and the divergence test; it is
            # inf for a huge finite iterate, so only then are entries inspected
            sq = x_next @ x_next
            finite = math.isfinite(sq) or bool(np.all(np.isfinite(x_next)))
            if not finite and not rule.divergent:
                raise NumericalError(f"non-finite iterate at step {k} under rule "
                                     f"{trace.rule_name}")

            step_norm = _norm(x_next - x_curr) if finite else math.inf
            trace.final_residual = step_norm / alpha_k
            if rows or not finite:
                F_next = evaluate_composite(comp, x_next, f_val=f_next) if finite else math.inf
            if rows:
                steps.append((alpha_k, theta_k, L_k, step_norm, F_next))
                crows.append(counters.snapshot())
            if record:
                xs.append(x_next.copy() if finite else np.array(x_next, dtype=np.float64))

            if not finite or math.sqrt(sq) > config.divergence_norm:
                status = "diverged"
            elif step_norm / alpha_k <= config.grad_tol:
                status = "converged"
            x_curr, g_prev = x_next, g_curr
            alpha_prev, theta_prev = alpha_k, theta_k
            g_curr = None
            if status != "max_iter" or k == config.max_iter - 1:
                break   # a finished run never needs the next gradient
            g_curr = _eval_gradient(comp, x_curr, on_event)
            if linesearch:
                on_event("reuse")  # accepted trial's work feeds this gradient
                f_curr = f_next
            if record:
                grads.append(g_curr.copy())

    trace.status = status
    trace.iters = k + (status != "stalled")   # the loop always ends in a break
    if rows:
        (trace.alphas, trace.thetas, trace.curvatures, trace.step_norms,
         trace.F_steps) = (np.asarray(column) for column in (zip(*steps) if steps else [()] * 5))
        trace.counter_rows = np.asarray(crows, dtype=np.int64).reshape(-1, len(COUNTER_FIELDS))
    trace.counters = counters
    trace.x_final = np.array(x_curr, dtype=np.float64)
    trace.F_final = F_next if (rows or not np.all(np.isfinite(x_curr))) \
        else evaluate_composite(comp, x_curr)
    if record:
        if g_curr is None and np.all(np.isfinite(x_curr)):
            grads.append(comp.f.gradient(x_curr))  # diagnostics only, uncounted
        trace.xs = np.asarray(xs)
        trace.grads = np.asarray(grads)
    return trace
