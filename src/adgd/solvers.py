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
    divergent = False        # stops at its first non-finite iterate, not at DIVERGENCE_NORM

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
    z = g * -alpha   # x - alpha g bit for bit (a - b is a + (-b)), in one array
    z += x
    if comp.g.is_zero:
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


@np.errstate(over="ignore", invalid="ignore")   # the run loop's error state
def _alpha0_search(comp, x0, g0, on_event):
    """Pick alpha0 with alpha0 * L_1(alpha0) in [1/sqrt(2), 2], given g0 = grad f(x0).

    Each probe takes the first step x1 with a candidate alpha0 (through the
    prox for composite problems) and measures L_1 between x0 and x1.
    Factor-10 steps climb while the product is below the window (a NaN
    product climbs on) and descend otherwise (a NaN on the first probe
    searches down); once a step leaps over the window, log-space bisection
    between the last probes below and above it follows, a NaN counting as
    above.  A probe whose gradient raises ``NumericalError`` (an overflow in
    f, say) has a NaN product.  A climb ends at ``ALPHA0_CAP``: degenerate
    problems whose product never reaches the window from below take it, such
    as a zero g0 whose probes do not move.  Returns the last probe, which is at
    alpha0: (alpha0, x1, grad f(x1)), the gradient None when x1 = x0, and both
    None when that probe's gradient raised.
    """
    lo = hi = None   # the last alphas whose products fell below and above the window
    alpha, moves, halvings = 1.0, 0, 0
    while True:
        x1 = _step(comp, x0, g0, alpha, on_event)
        dx = _norm(x1 - x0)
        try:
            g1 = None if dx == 0.0 else _eval_gradient(comp, x1, on_event)
            p = 0.0 if g1 is None else alpha * _norm(g1 - g0) / dx
        except NumericalError:   # at the cap, this probe is returned without x1
            x1 = g1 = None
            p = math.nan
        if ALPHA0_LOW <= p <= ALPHA0_HIGH:
            return alpha, x1, g1
        climbing = lo is not None and hi is None
        if (not p > ALPHA0_HIGH) if climbing else p < ALPHA0_LOW:
            lo = alpha
        else:
            hi = alpha
        if lo is not None and hi is not None:
            # the window is wide enough that log-bisection lands inside it fast
            if halvings == 200:
                raise NumericalError("initial stepsize bisection failed to land in the window")
            halvings += 1
            alpha = math.sqrt(lo * hi)
        elif alpha == ALPHA0_CAP:
            return alpha, x1, g1   # degenerate: the product stays below the window
        else:
            if moves == 600:
                raise NumericalError("initial stepsize search failed to terminate")
            moves += 1
            alpha = min(10.0 * alpha, ALPHA0_CAP) if hi is None else alpha / 10.0


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

    or the iteration budget is hit.  An iterate norm above ``DIVERGENCE_NORM``
    marks the run diverged, but the divergent variant runs on to its first
    non-finite iterate, which under any other rule raises a hard error with
    the step index.  A backtracking search that accepts no trial ends the run
    stalled at x^k, after k steps.

    Each step takes one pass over d = x^{k+1} - x^k for its norm.  A
    non-finite entry of x^{k+1} makes d'd inf or NaN (x^k is finite), so the
    entries of x^{k+1} are inspected only when d'd is not finite.  A recorded
    run keeps the arrays the loop holds, which nothing writes to, and stacks
    them once at the end.
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
    x0.flags.writeable = False   # so f may keep its work at x0 for the gradient there
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
    x1 = g1 = None   # the search's last probe: the step at alpha_0 and grad f there
    if rule.fixed_alpha0 is not None:
        alpha0 = rule.fixed_alpha0
    elif searched:
        alpha0, x1, g1 = _alpha0_search(comp, x0, g0, on_event)
    else:
        alpha0 = float(config.alpha0)

    trace = Trace(rule=rule, prox_run=prox_run, alpha0=alpha0, alpha0_searched=searched,
                  F_initial=float(comp.f.value(x0) if f_curr is None else f_curr)
                  + float(g_x0))

    steps, crows, xs, grads = [], [], [], []   # steps: (alpha, theta, L, step_norm, F)
    record = config.record_trace
    rows = config.record_rows
    if record:
        xs.append(x0)
        grads.append(g0)

    x_curr = x0
    limit = math.inf if rule.divergent else DIVERGENCE_NORM
    g_prev, g_curr = None, g0
    alpha_prev, theta_prev = alpha0, rule.theta0   # alpha_{k-1}, theta_{k-1}
    status = "max_iter"
    F_next = trace.F_initial   # F(x^k) entering step k, when rows are recorded

    # one error state for the whole loop: a diverging rule overflows on purpose
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(config.max_iter):
            if k == 0:
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
                if k == 0:   # alpha_0 and theta_0; a searched alpha_0's last probe took this step
                    alpha_k, theta_k = alpha0, rule.theta0
                else:
                    alpha_k = rule.stepsize(alpha_prev, theta_prev, L_k)
                    theta_k = alpha_k / alpha_prev
                x_next = _step(comp, x_curr, g_curr, alpha_k, on_event) if k or x1 is None else x1
                f_next = None

            # d'd is not finite for a non-finite x_next, and for a huge finite step
            d = x_next - x_curr
            sq = d @ d
            finite = math.isfinite(sq)
            if finite:
                step_norm = math.sqrt(sq)
            else:
                finite = bool(np.all(np.isfinite(x_next)))
                if not finite and not rule.divergent:
                    raise NumericalError(f"non-finite iterate at step {k} under rule "
                                         f"{trace.rule_name}")
                step_norm = _norm(d) if finite else math.inf
            if rows or not finite:
                F_next = evaluate_composite(comp, x_next, f_val=f_next) if finite else math.inf
            if rows:
                steps.append((alpha_k, theta_k, L_k, step_norm, F_next))
                crows.append(counters.snapshot())
            if record:
                xs.append(x_next)

            if not finite or math.sqrt(x_next @ x_next) > limit:
                status = "diverged"
            elif step_norm / alpha_k <= config.grad_tol:
                status = "converged"
            x_curr, g_prev = x_next, g_curr
            alpha_prev, theta_prev = alpha_k, theta_k
            g_curr = None
            if status != "max_iter" or k == config.max_iter - 1:
                break   # a finished run never needs the next gradient
            g_curr = g1 if x_curr is x1 else _eval_gradient(comp, x_curr, on_event)
            if linesearch:
                on_event("reuse")  # accepted trial's work feeds this gradient
                f_curr = f_next
            if record:
                grads.append(g_curr)

    trace.status = status
    trace.iters = k + (status != "stalled")   # the loop always ends in a break
    if trace.iters:
        trace.final_residual = step_norm / alpha_prev
    if rows:
        (trace.alphas, trace.thetas, trace.curvatures, trace.step_norms,
         trace.F_steps) = (np.asarray(column) for column in (zip(*steps) if steps else [()] * 5))
        trace.counter_rows = np.asarray(crows, dtype=np.int64).reshape(-1, len(COUNTER_FIELDS))
    trace.counters = counters
    trace.x_final = np.array(x_curr, dtype=np.float64)
    trace.F_final = F_next if (rows or not np.all(np.isfinite(x_curr))) \
        else evaluate_composite(comp, x_curr)
    if record:
        trace.xs = np.asarray(xs)
        if g_curr is None and finite:   # diagnostics only, uncounted; at the copy, arms no box
            grads.append(comp.f.gradient(trace.xs[-1]))
        trace.grads = np.asarray(grads)
    return trace
