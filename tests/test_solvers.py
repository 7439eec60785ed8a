import dataclasses
import math
from types import SimpleNamespace

import numpy as np
import pytest

from adgd.accounting import COUNTER_FIELDS, Counters, apply_event
from adgd.core import NumericalError, SmoothFunction, composite, ProxFriendly
from adgd.experiments import trace_csv_text
from adgd.problems import (
    make_counterexample,
    make_dual_entropy,
    make_least_squares,
    make_lrmc,
    make_problem,
    make_quadratic,
    make_quartic,
)
import adgd.prox
from adgd.prox import SpectralBox, nonneg_indicator, project_spectral_box
from adgd.solvers import (
    ALPHA0_CAP,
    AdGD1,
    AdGD2,
    Armijo,
    BadGD,
    FixedStep,
    MAX_LINESEARCH_TRIALS,
    OldAdGD,
    RunConfig,
    _alpha0_search,
    _norm,
    armijo_search,
    run_solver,
)

from oracles import curvature_estimate, recover_subgradient, two_loop_alpha0_search

SQ2 = math.sqrt(2.0)


def half_sq(n=1, scale=1.0):
    return SmoothFunction(n, lambda x: 0.5 * scale * float(x @ x),
                          lambda x: scale * np.asarray(x, dtype=float),
                          lipschitz=scale)


def vec(v):
    return np.atleast_1d(np.asarray(v, dtype=float))


def instance(comp, x0):
    return SimpleNamespace(composite=comp, x0=vec(x0), kind="custom")


def two_steps(comp, x0, alpha0, rule):
    """Trace of a 2-step run from x0; its xs hold x^0, x^1 and x^2."""
    return run_solver(instance(comp, x0), rule,
                      RunConfig(max_iter=2, grad_tol=1e-300, alpha0=alpha0))


# ---------------------------------------------------------------------------
# curvature estimate
# ---------------------------------------------------------------------------

def test_curvature_hand_example():
    L = curvature_estimate([1.0, 0.0], [0.0, 0.0], [2.0, 0.0], [0.0, 0.0])
    assert L == 2.0


def test_curvature_zero_numerator():
    assert curvature_estimate([1.0], [0.0], [3.0], [3.0]) == 0.0


def test_curvature_counterexample_tails():
    from adgd.problems import counterexample_f
    d12, d20 = counterexample_f(12.0)[1], counterexample_f(20.0)[1]
    L = curvature_estimate([12.0], [20.0], [d12], [d20])
    assert abs(L - 2.0 / (13.0 * 21.0)) <= 1e-15


def test_curvature_past_an_overflowing_square():
    # the loop's norm: ||d||^2 = 2e320 overflows; d is rescaled by max|d| = 1e160 first
    with np.errstate(over="ignore"):   # as in the loop
        assert _norm(np.array([1e160, -1e160])) == 1e160 * SQ2
        assert _norm(np.array([math.inf, 0.0])) == math.inf
    d = np.array([3.0, -4.0, 12.0])
    assert _norm(d) == np.linalg.norm(d)   # below overflow: np.linalg.norm's bits


@pytest.mark.parametrize("rule, steps", [(AdGD2(), 124), (AdGD1(), 324), (OldAdGD(), 572)])
def test_runs_past_an_overflowing_gradient_difference(rule, steps):
    """Hessian diag(1, 1e160) from x0 = (1, 1e-150) with alpha0 = 1: the first
    gradient difference has norm 1e170, whose square overflows.  L_1 is still
    1e160, not inf, so the next step is positive and the run converges."""
    h = np.array([1.0, 1e160])
    f = SmoothFunction(2, lambda x: 0.5 * float(x @ (h * x)), lambda x: h * x, name="stiff")
    problem = instance(composite(f), [1.0, 1e-150])
    tr = run_solver(problem, rule, RunConfig(max_iter=2000, alpha0=1.0, grad_tol=1e-9))
    assert tr.curvatures[1] == 1e160
    dg = tr.grads[1] - tr.grads[0]   # its squared norm overflows: rescale by hand
    scale = np.max(np.abs(dg))
    dx = np.linalg.norm(tr.xs[1] - tr.xs[0])
    assert tr.curvatures[1] == scale * np.linalg.norm(dg / scale) / dx
    assert tr.status == "converged" and tr.iters == steps


# ---------------------------------------------------------------------------
# stepsize rules
# ---------------------------------------------------------------------------

def test_adgd1_curvature_bound_loose():
    assert AdGD1().stepsize(0.5, 0.0, 1.0) == 0.5


def test_adgd1_flat_region_uses_growth():
    assert AdGD1().stepsize(1.0, 0.0, 0.0) == 1.0


def test_adgd1_curvature_bound_binds():
    assert abs(AdGD1().stepsize(1.0, 1.0, 10.0) - 1.0 / (10.0 * SQ2)) <= 1e-16


def test_adgd2_negative_bracket_uses_growth():
    assert AdGD2().stepsize(0.5, 1.0 / 3.0, 1.0) == 0.5


def test_adgd2_fixed_step_is_invariant():
    L = 4.0
    assert AdGD2().stepsize(1.0 / L, 1.0, L) == 1.0 / L


def test_adgd2_bracket_binds():
    assert abs(AdGD2().stepsize(1.0, 0.0, 2.0) - 1.0 / math.sqrt(7.0)) <= 1e-15


def test_adgd2_overflowing_bracket_takes_its_limit():
    assert AdGD2().stepsize(1.0, 1.0 / 3.0, 1e160) == 1.0 / (SQ2 * 1e160)


def test_badgd_overflowing_c_times_l_divides_in_turn():
    assert BadGD(1e6).stepsize(1.0, 1.0, 1e304) == 1.0 / 1e6 / 1e304 > 0.0
    assert BadGD(2.0).stepsize(1.0, 1.0, 1e300) == 1.0 / (2.0 * 1e300)


def test_adgd2_runs_past_an_overflowing_bracket():
    """alpha_0 L_1 = 1.3e154, so 2 (alpha L)^2 - 1 overflows on the first
    adaptive step; the step is the bracket's limit, not 0."""
    h = 1.3e154
    f = SmoothFunction(dimension=1, value=lambda x: float(0.5 * h * x[0] ** 2),
                       gradient=lambda x: h * x, name="stiff")
    problem = SimpleNamespace(composite=composite(f), x0=np.array([1.0 / h]), kind="custom")
    tr = run_solver(problem, AdGD2(), RunConfig(max_iter=200, alpha0=1.0, grad_tol=1e-9))
    assert tr.status == "converged"
    assert tr.alphas[1] == AdGD2().stepsize(1.0, 1.0 / 3.0, float(tr.curvatures[1])) > 0.0


# ---------------------------------------------------------------------------
# steps
# ---------------------------------------------------------------------------

def test_gd_step_adgd1_hand_iteration():
    tr = two_steps(composite(half_sq(1)), [2.0], 0.5, AdGD1())
    assert tr.xs[1][0] == 1.0
    assert tr.xs[2][0] == 0.5
    assert tr.alphas[1] == 0.5 and tr.thetas[1] == 1.0


def test_gd_step_fixed_one_shot_quadratic():
    L = 4.0  # 1/L exact in binary, so the minimizer step lands exactly
    tr = two_steps(composite(half_sq(1, scale=L)), [2.0], 1e-3, FixedStep(1.0 / L))
    assert tr.xs[1][0] == 0.0
    assert tr.x_final[0] == 0.0


def test_gd_step_old_variant_matches_hand_bounds():
    tr = two_steps(composite(half_sq(1)), [2.0], 0.5, OldAdGD())
    # growth bound sqrt(1+0)*0.5 ties with curvature bound 1/(2 L_1), L_1 = 1
    assert tr.alphas[1] == 0.5
    assert tr.xs[2][0] == 0.5


def test_proxgd_step_orthant_hand_example():
    f = SmoothFunction(1, lambda x: 0.5 * float((x[0] - 1.0) ** 2),
                       lambda x: np.array([x[0] - 1.0]))
    tr = two_steps(composite(f, nonneg_indicator()), [0.0], 1.0, FixedStep(1.0))
    assert tr.xs[1][0] == 1.0
    assert tr.subgrads[1][0] == 0.0


def test_proxgd_with_zero_prox_matches_gd_bitwise():
    inst = make_quadratic(60, 8, 30.0)
    plain = inst.composite
    wrapped = composite(plain.f, ProxFriendly(value=lambda x: 0.0,
                                              prox=lambda a, z: z))
    cfg = RunConfig(max_iter=20, grad_tol=1e-300, alpha0=0.01)
    tr_g = run_solver(instance(plain, inst.x0), AdGD2(), cfg)
    tr_p = run_solver(instance(wrapped, inst.x0), AdGD2(), cfg)
    assert tr_g.iters == tr_p.iters == 20
    assert np.array_equal(tr_g.xs, tr_p.xs)
    assert np.array_equal(tr_g.alphas, tr_p.alphas)


def test_proxgd_step_keeps_dual_entropy_feasible():
    inst = make_dual_entropy(61, 12, 6)
    tr = run_solver(inst, AdGD2(), RunConfig(max_iter=1, grad_tol=1e-12))
    assert np.min(tr.x_final[:12]) >= 0.0


# ---------------------------------------------------------------------------
# subgradient recovery
# ---------------------------------------------------------------------------

def test_recover_zero_for_smooth_runs():
    inst = make_quadratic(62, 6, 20.0)
    tr = run_solver(inst, AdGD2(), RunConfig(max_iter=50, grad_tol=1e-12))
    assert np.max(np.abs(tr.subgrads)) <= 1e-12


def _prox_quadratic():
    rng = np.random.default_rng(73)
    M = rng.normal(size=(8, 8))
    Q = M @ M.T + 0.5 * np.eye(8)
    b = Q @ rng.normal(size=8)
    f = SmoothFunction(8, lambda x: 0.5 * float(x @ (Q @ x)) - float(b @ x),
                       lambda x: Q @ x - b)
    return instance(composite(f, nonneg_indicator()), np.abs(rng.normal(size=8)))


TRACE_RULES = [AdGD1(), AdGD2(), OldAdGD(), FixedStep(0.02), Armijo(1.2, 0.5),
               BadGD(1.0), BadGD(2.0)]
TRACE_PROBLEMS = {"quadratic": lambda: make_quadratic(74, 12, 30.0),
                  "orthant": _prox_quadratic,
                  "dual_entropy": lambda: make_dual_entropy(75, 15, 8)}


@pytest.mark.parametrize("make, rule", [
    pytest.param(make, rule, id=f"{label}-{rule.name}")
    for label, make in TRACE_PROBLEMS.items() for rule in TRACE_RULES
    if label == "quadratic" or rule.prox_ok])   # only the quadratic is smooth
def test_derived_trace_arrays_match_step_by_step_rebuild(make, rule):
    """Trace.subgrads and Trace.F_values, derived from the trajectory, have the
    bits of recover_subgradient per step and of [F_initial, *F_steps]."""
    tr = run_solver(make(), rule, RunConfig(max_iter=80, grad_tol=1e-12, alpha0=0.05))
    v = [np.zeros_like(tr.xs[0])]
    for k in range(tr.iters):
        v.append(recover_subgradient(tr.xs[k + 1], tr.xs[k], tr.grads[k], tr.alphas[k])
                 if tr.prox_run else np.zeros_like(tr.xs[0]))
    assert tr.iters > 5 and tr.xs.shape[0] == tr.iters + 1
    assert tr.subgrads.tobytes() == np.asarray(v).tobytes()
    assert tr.F_values.tobytes() == np.asarray([tr.F_initial, *tr.F_steps]).tobytes()
    if tr.prox_run:
        assert np.any(tr.subgrads != 0.0)


def test_derived_trace_arrays_need_a_trajectory():
    tr = run_solver(make_quadratic(76, 6, 10.0), AdGD2(),
                    RunConfig(max_iter=20, record_trace=False))
    assert tr.xs is None and tr.subgrads is None and tr.F_values is None
    assert tr.rule == AdGD2() and tr.rule_name == "adgd2"


def test_recover_orthant_hand_example():
    v = recover_subgradient([1.0], [-1.0], [-2.0], 1.0)
    assert v[0] == 0.0


def test_recover_normal_cone_membership():
    rng = np.random.default_rng(7)
    g = nonneg_indicator()
    for _ in range(50):
        x = rng.normal(size=6)
        grad = rng.normal(size=6)
        alpha = float(rng.uniform(0.1, 2.0))
        y = g.prox(alpha, x - alpha * grad)
        v = recover_subgradient(y, x, grad, alpha)
        active = y == 0.0
        assert np.all(v[active] <= 1e-12)
        if (~active).any():
            assert np.max(np.abs(v[~active])) <= 1e-12


# ---------------------------------------------------------------------------
# backtracking
# ---------------------------------------------------------------------------

def test_armijo_accepts_immediately_below_curvature():
    L, s = 1.0, 1.2
    f = composite(half_sq(1, scale=L))
    events = []
    alpha, y, fy, evals = armijo_search(f, vec(1.0), vec(1.0 * L), 0.5 / s, s, 0.5, 0.5,
                                        events.append)
    assert evals == 1
    assert alpha == 0.5
    assert events == ["value"]


def test_armijo_quadratic_matches_oracle_loop():
    s, r, alpha_prev = 1.2, 0.5, 4.0
    f = composite(half_sq(1))
    events = []
    alpha, y, fy, evals = armijo_search(f, vec(1.0), vec(1.0), alpha_prev, s, r, 0.5,
                                        events.append)

    # independent oracle: first i whose candidate passes the decrease test
    def oracle():
        for i in range(100):
            a = s * (r ** i) * alpha_prev
            cand = 1.0 - a * 1.0
            lhs = 0.5 * cand * cand
            rhs = 0.5 + 1.0 * (cand - 1.0) + (cand - 1.0) ** 2 / (2 * a)
            if lhs <= rhs:
                return a, i + 1
        raise AssertionError

    a_star, n_star = oracle()
    assert alpha == a_star == 0.6
    assert evals == n_star == 4
    assert events == ["value"] * evals   # one f evaluation per trial, no prox


def test_armijo_counts_prox_per_trial():
    events = []
    f = SmoothFunction(1, lambda x: 0.5 * float((x[0] - 1.0) ** 2),
                       lambda x: np.array([x[0] - 1.0]))
    comp = composite(f, nonneg_indicator())
    alpha, y, fy, evals = armijo_search(comp, vec(0.5), vec(-0.5), 8.0, 1.2, 0.5,
                                        comp.f.value(np.array([0.5])), events.append)
    assert events == ["prox", "value"] * evals   # each trial: its prox, then its value


def _stuck():
    """f = 1 with f' = 1: no backtracking trial ever passes the decrease test."""
    return composite(SmoothFunction(1, lambda x: 1.0, lambda x: np.array([1.0])))


def test_armijo_stalls_on_pathological_objective():
    events = []
    result = armijo_search(_stuck(), vec(0.0), vec(1.0), 1.0, 1.2, 0.9, -10.0, events.append)
    # the last trial's stepsize, no point, no value, every trial of the budget
    assert result == (1.2 * (0.9 ** MAX_LINESEARCH_TRIALS) * 1.0, None, None,
                      MAX_LINESEARCH_TRIALS + 1)
    assert events == ["value"] * (MAX_LINESEARCH_TRIALS + 1)


@pytest.mark.parametrize("rows,trajectory", [(True, True), (True, False), (False, False)])
def test_run_stalled_at_the_first_step_ends_at_x0(rows, trajectory):
    tr = run_solver(instance(_stuck(), 0.0), Armijo(1.2, 0.9),
                    RunConfig(max_iter=5, record_rows=rows, record_trace=trajectory))
    assert (tr.status, tr.iters) == ("stalled", 0)
    assert tr.x_final.tolist() == [0.0]
    assert tr.F_final == tr.F_initial == 1.0
    assert math.isnan(tr.final_residual)   # no step was taken
    # the failed search is counted: f at x0, then every trial
    assert tr.counters.func_evals == 1 + MAX_LINESEARCH_TRIALS + 1
    if rows:
        assert tr.alphas.shape == tr.F_steps.shape == (0,)
        assert tr.counter_rows.shape == (0, len(COUNTER_FIELDS))
        assert trace_csv_text(tr).count("\n") == 1   # the header alone
    if trajectory:
        assert tr.xs.tolist() == [[0.0]] and tr.grads.tolist() == [[1.0]]


def test_armijo_run_that_finds_no_step_ends_stalled_at_x_k():
    """Armijo(1.1, 0.9) on desk lrmc seed 4 reaches the rounding floor, where
    0.9^200 cannot shrink alpha enough (29 steps on a 2-CPU x86 box with
    OpenBLAS).  At grad_tol 1e-8 the same run converges before the floor."""
    inst = make_problem("lrmc", 4)
    cfg = RunConfig(max_iter=120, grad_tol=1e-9)
    tr = run_solver(inst, Armijo(1.1, 0.9), cfg)
    k = tr.iters
    assert tr.status == "stalled" and 0 < k < cfg.max_iter
    assert tr.alphas.shape == tr.F_steps.shape == (k,)
    assert tr.counter_rows.shape == (k, len(COUNTER_FIELDS))
    assert trace_csv_text(tr).count("\n") == k + 1   # the header and k rows
    assert tr.xs.shape[0] == tr.grads.shape[0] == k + 1
    assert np.array_equal(tr.x_final, tr.xs[k])
    assert tr.F_final == tr.F_steps[-1]
    # the stalled search's trials follow the last row: f and one SVD prox each
    last = dict(zip(COUNTER_FIELDS, tr.counter_rows[-1].tolist()))
    assert tr.counters.func_evals - last["func_evals"] == MAX_LINESEARCH_TRIALS + 1
    assert tr.counters.svd_count - last["svd_count"] == MAX_LINESEARCH_TRIALS + 1
    # the stall leaves the k steps before it as a k-step run takes them
    short = run_solver(inst, Armijo(1.1, 0.9), dataclasses.replace(cfg, max_iter=k))
    assert short.status == "max_iter"
    assert trace_csv_text(short) == trace_csv_text(tr)
    assert np.array_equal(short.x_final, tr.x_final) and short.F_final == tr.F_final


# ---------------------------------------------------------------------------
# initial stepsize
# ---------------------------------------------------------------------------

def searched_alpha0(inst):
    """alpha_0 as a run finds it: the initial stepsize search of run_solver."""
    tr = run_solver(inst, AdGD2(), RunConfig(max_iter=1))
    assert tr.alpha0_searched
    return tr.alpha0


def test_alpha0_quadratic_returns_one():
    inst = make_counterexample(0.5)  # pure quadratic region, curvature 1
    assert searched_alpha0(inst) == 1.0


def test_alpha0_linear_hits_cap():
    f = SmoothFunction(2, lambda x: float(x[0] + 2 * x[1]),
                       lambda x: np.array([1.0, 2.0]))

    class Inst:
        composite = composite(f)
        x0 = np.array([0.0, 0.0])

    inst = Inst()
    events = []
    g0 = inst.composite.f.gradient(inst.x0)
    assert _alpha0_search(inst.composite, inst.x0, g0, events.append) == ALPHA0_CAP
    assert events == ["gradient"] * 9   # probes at alpha = 1, 10, ..., 1e8, all below the window


def test_alpha0_quartic_lands_in_window():
    inst = make_quartic()
    comp = inst.composite
    a0 = searched_alpha0(inst)
    g0 = comp.f.gradient(inst.x0)
    y = inst.x0 - a0 * g0
    L1 = curvature_estimate(y, inst.x0, comp.f.gradient(y), g0)
    assert 1.0 / SQ2 - 1e-12 <= a0 * L1 <= 2.0 + 1e-12


def test_alpha0_prox_problem_lands_in_window():
    inst = make_dual_entropy(63, 15, 8)
    comp = inst.composite
    a0 = searched_alpha0(inst)
    g0 = comp.f.gradient(inst.x0)
    y = comp.g.prox(a0, inst.x0 - a0 * g0)
    L1 = curvature_estimate(y, inst.x0, comp.f.gradient(y), g0)
    assert 1.0 / SQ2 - 1e-12 <= a0 * L1 <= 2.0 + 1e-12


def test_alpha0_stationary_start_climbs_to_the_cap():
    comp = composite(half_sq(3))
    for search in (_alpha0_search, two_loop_alpha0_search):
        events = []
        assert search(comp, np.zeros(3), np.zeros(3), events.append) == ALPHA0_CAP
        assert events == []   # no trial step moves, so no probe takes a gradient


@pytest.mark.parametrize("rule", [AdGD2(), Armijo(1.2, 0.5)], ids=["adgd2", "armijo"])
@pytest.mark.parametrize("make", [
    pytest.param(lambda: instance(composite(half_sq(3)), np.zeros(3)), id="smooth"),
    pytest.param(lambda: make_lrmc(1, 60, fraction=1e-9), id="lrmc-no-entries"),
])
def test_run_from_a_stationary_start_converges_in_one_step(make, rule):
    inst = make()
    assert not np.any(inst.composite.f.gradient(inst.x0))
    tr = run_solver(inst, rule, RunConfig(max_iter=5))
    assert (tr.status, tr.iters) == ("converged", 1)
    assert tr.alpha0 == ALPHA0_CAP


def _one_dim(gradient):
    """A 1-D problem from x0 = 0 with derivative ``gradient(y)``."""
    f = SmoothFunction(1, lambda x: 0.0, lambda x: np.array([gradient(float(x[0]))]))
    return lambda: instance(composite(f), [0.0])


def _kinked(below, above, at):
    """f'(y) = 1 + k y, k = ``below`` for |y| < ``at`` else ``above``: the
    product k alpha jumps by above / below where alpha crosses ``at``."""
    return _one_dim(lambda y: 1.0 + (below if abs(y) < at else above) * y)


ALPHA0_CASES = {
    **{f"{kind}-{seed}": (lambda kind=kind, seed=seed: make_problem(kind, seed))
       for kind in ("mle", "lrmc", "curve", "nmf", "dual_entropy") for seed in (1, 2)},
    **{kind: (lambda kind=kind: make_problem(kind, 1))
       for kind in ("quadratic", "quartic", "logistic")},
    "counterexample": make_counterexample,
    "counterexample-0.5": lambda: make_counterexample(0.5),
    "linear-cap": lambda: instance(composite(SmoothFunction(
        2, lambda x: float(x[0] + 2 * x[1]), lambda x: np.array([1.0, 2.0]))), [0.0, 0.0]),
    # f'(y) = 1 + c y: the product is c alpha, so c picks the direction and how
    # far the factor-10 steps go before one lands in the window or leaps past it
    **{f"curvature-{c:g}": _one_dim(lambda y, c=c: 1.0 + c * y)
       for c in (1e-9, 3e-3, 0.3, 1.0, 3.0, 300.0, 1e300)},
    "leap-up-then-bisection-fails": _kinked(0.01, 1.0, 3.0),
    "leap-down-then-bisection-fails": _kinked(1.0, 100.0, 0.3),
    "nan-products": _one_dim(lambda y: 1.0 if y == 0.0 else math.nan),
    "infinite-gradient": _one_dim(lambda y: math.inf),
}


def _alpha0_outcome(search, make):
    """(alpha0 or the error raised, the events) of ``search`` on a fresh ``make()``."""
    inst = make()
    events = []
    g0 = inst.composite.f.gradient(np.array(inst.x0, dtype=np.float64))
    try:
        with np.errstate(all="ignore"):   # the inf and nan cases
            result = search(inst.composite, inst.x0, g0, events.append)
    except NumericalError as exc:
        result = (type(exc), str(exc))
    return result, events


@pytest.mark.parametrize("case", ALPHA0_CASES)
def test_alpha0_single_loop_matches_two_loop_search(case):
    new, new_events = _alpha0_outcome(_alpha0_search, ALPHA0_CASES[case])
    old, old_events = _alpha0_outcome(two_loop_alpha0_search, ALPHA0_CASES[case])
    assert new == old
    assert new_events == old_events
    assert new_events   # every search probes at least once


# ---------------------------------------------------------------------------
# full runs
# ---------------------------------------------------------------------------

def test_run_adgd2_quadratic_converges_tightly():
    inst = make_counterexample(10.0)
    tr = run_solver(inst, AdGD2(), RunConfig(max_iter=100000, grad_tol=1e-10))
    assert tr.status == "converged"
    assert abs(tr.x_final[0]) <= 1e-9


def test_run_badgd_diverges():
    inst = make_counterexample(12.0)
    tr = run_solver(inst, BadGD(1.0), RunConfig(max_iter=200, grad_tol=1e-12))
    assert tr.status == "diverged"
    assert tr.iters <= 200


@pytest.mark.parametrize("make, rule", [
    (lambda: make_least_squares(70, 30, 12), AdGD1()),
    (lambda: make_dual_entropy(71, 15, 8), AdGD2()),
    (lambda: make_quadratic(72, 10, 50.0), Armijo(1.5, 0.5)),
])
def test_run_curvature_is_curvature_estimate_bitwise(make, rule):
    # the loop takes ||x^k - x^{k-1}|| from the step before; same bits as the function
    tr = run_solver(make(), rule, RunConfig(max_iter=60, grad_tol=1e-14))
    assert tr.iters > 10
    for k in range(1, tr.iters):
        assert tr.curvatures[k] == curvature_estimate(tr.xs[k], tr.xs[k - 1],
                                                      tr.grads[k], tr.grads[k - 1])


def test_run_single_iteration_budget():
    inst = make_quadratic(65, 5, 10.0)
    tr = run_solver(inst, AdGD2(), RunConfig(max_iter=1, grad_tol=1e-16, alpha0=0.01))
    assert tr.status == "max_iter"
    assert tr.iters == 1
    assert len(trace_csv_text(tr).splitlines()) == 2   # header and one row


def test_run_alg1_stepsize_invariants():
    inst = make_least_squares(66, 30, 12)
    tr = run_solver(inst, AdGD1(), RunConfig(max_iter=2000, grad_tol=1e-10, alpha0=1e-3))
    a, th, L = tr.alphas, tr.thetas, tr.curvatures
    for k in range(1, tr.iters):
        assert a[k] * L[k] <= 1.0 / SQ2 + 1e-10
        assert a[k] <= math.sqrt(1.0 + th[k - 1]) * a[k - 1] * (1 + 1e-12)


def test_run_fixed_step_reproduction_stays_exact():
    inst = make_quadratic(67, 50, 10.0)
    L = inst.composite.f.lipschitz
    tr = run_solver(inst, AdGD2(), RunConfig(max_iter=1000, grad_tol=1e-300,
                                             alpha0=1.0 / L, curvature_override=L))
    assert tr.iters == 1000
    assert np.max(np.abs(tr.alphas - 1.0 / L)) <= 1e-14 / L


def test_run_determinism_bitwise():
    inst = make_dual_entropy(68, 20, 10)
    cfg = RunConfig(max_iter=300, grad_tol=1e-10)
    t1 = run_solver(inst, AdGD2(), cfg)
    t2 = run_solver(inst, AdGD2(), cfg)
    assert np.array_equal(t1.xs, t2.xs)
    assert np.array_equal(t1.alphas, t2.alphas)
    assert t1.counters == t2.counters   # dataclass equality, field by field


def test_run_nan_gradient_raises_with_index():
    f = SmoothFunction(1, lambda x: float(x[0]), lambda x: np.array([math.nan]))

    class Inst:
        composite = composite(f)
        x0 = np.array([1.0])
        kind = "custom"

    with pytest.raises(NumericalError):
        run_solver(Inst(), AdGD2(), RunConfig(max_iter=10, grad_tol=1e-10, alpha0=1.0))


def _flat_problem(gradient, x0):
    f = SmoothFunction(len(x0), lambda x: 0.0, gradient)
    return SimpleNamespace(composite=composite(f), x0=np.array(x0), kind="custom")


def _inf_below_half(x):
    # 0.5 x^2 until the iterate drops below 0.5, then an infinite gradient
    return np.asarray(x, dtype=float) if x[0] > 0.5 else np.array([math.inf])


@pytest.mark.parametrize("rows", [True, False])
def test_run_nonfinite_iterate_names_step(rows):
    # steps 0 and 1 are finite (1 -> 0.7 -> 0.49); step 2 meets the infinite gradient
    cfg = RunConfig(max_iter=10, grad_tol=1e-10, alpha0=0.3, record_rows=rows,
                    record_trace=rows)
    with pytest.raises(NumericalError, match="non-finite iterate at step 2 under rule adgd2"):
        run_solver(_flat_problem(_inf_below_half, [1.0]), AdGD2(), cfg)


@pytest.mark.parametrize("push", [1e12, 1e200])
def test_run_huge_finite_iterate_diverges(push):
    # 1e200 overflows ||x||^2 to inf while every entry stays finite
    inst = _flat_problem(lambda x: np.array([-push, -push]), [1.0, 1.0])
    for rows in (True, False):
        tr = run_solver(inst, AdGD2(), RunConfig(max_iter=10, grad_tol=1e-10, alpha0=1.0,
                                                 record_rows=rows, record_trace=rows))
        assert tr.status == "diverged" and tr.iters == 1
        assert np.all(np.isfinite(tr.x_final))


def test_run_restores_floating_point_error_state():
    with np.errstate(all="warn"):   # a state the loop's own settings differ from
        before = np.geterr()
        run_solver(make_counterexample(12.0), BadGD(1.0),
                   RunConfig(max_iter=200, grad_tol=1e-12))
        assert np.geterr() == before
        with pytest.raises(NumericalError):
            run_solver(_flat_problem(_inf_below_half, [1.0]), AdGD2(),
                       RunConfig(max_iter=10, grad_tol=1e-10, alpha0=0.3))
        assert np.geterr() == before


def test_run_rejects_infeasible_start():
    f = half_sq(1)
    comp = composite(f, nonneg_indicator())

    class Inst:
        composite = comp
        x0 = np.array([-1.0])
        kind = "custom"

    with pytest.raises(ValueError):
        run_solver(Inst(), AdGD2(), RunConfig(max_iter=10, grad_tol=1e-10, alpha0=1.0))


@pytest.mark.parametrize("rule", [AdGD2(), Armijo(1.2, 0.5)], ids=["adgd2", "armijo"])
@pytest.mark.parametrize("kind, decomposition", [("mle", "eigvalsh"), ("lrmc", "svd")])
def test_run_evaluates_f_and_g_once_at_x0(kind, decomposition, rule, monkeypatch):
    # the domain test and F(x^0) share one g(x^0), which decomposes x^0 (no
    # prox output); under a linesearch F(x^0) takes the counted f(x^0)
    inst = make_problem(kind, 1)
    comp = inst.composite
    at_x0 = {"f": 0, "g": 0}

    def counted(name, value):
        def wrapped(x):
            at_x0[name] += np.array_equal(x, inst.x0)
            return value(x)
        return wrapped

    twin = dataclasses.replace(inst, composite=dataclasses.replace(
        comp, f=dataclasses.replace(comp.f, value=counted("f", comp.f.value)),
        g=dataclasses.replace(comp.g, value=counted("g", comp.g.value))))
    calls = []
    decompose = getattr(np.linalg, decomposition)
    monkeypatch.setattr(np.linalg, decomposition,
                        lambda *a, **kw: calls.append(a) or decompose(*a, **kw))
    trace = run_solver(twin, rule, RunConfig(max_iter=30, grad_tol=1e-12))
    assert at_x0 == {"f": 1, "g": 1}
    assert len(calls) - trace.counters.svd_count == 1   # the prox counts its SVDs


def _step_counts(comp) -> np.ndarray:
    """What one AdGD1/AdGD2 step counts: a gradient, and with a prox part one
    prox and that part's cost."""
    step = Counters(grad_evals=1)
    if comp.has_prox_part:
        apply_event(step, comp.g.cost, "prox")
    return np.array(step.snapshot())


def _alpha0_probe_counts(inst) -> np.ndarray:
    """What the initial stepsize search counts on its own."""
    comp = inst.composite
    probes = Counters()
    _alpha0_search(comp, inst.x0, comp.f.gradient(inst.x0),
                   lambda event: apply_event(probes, comp.g.cost, event))
    return np.array(probes.snapshot())


def test_adaptive_steps_add_no_computational_cost(pool, pool_traces):
    """No added computational cost: past row 0, each AdGD2 step on the 20-instance
    pool and each AdGD1 step on its 15 smooth instances adds exactly one gradient
    and, with a prox part, one prox and its cost; never an f value or a reuse.
    Row 0 is the gradient at x0, the alpha0 probes and the first step."""
    runs = [(inst, pool_traces[id(inst)]) for inst in pool]
    runs += [(inst, run_solver(inst, AdGD1(), RunConfig(max_iter=300, record_trace=False)))
             for inst in pool if not inst.composite.has_prox_part]
    assert len(runs) == 35
    for inst, trace in runs:
        step = _step_counts(inst.composite)
        rows = trace.counter_rows
        assert len(rows) > 1
        assert np.array_equal(np.diff(rows, axis=0), np.tile(step, (len(rows) - 1, 1)))
        assert np.array_equal(rows[0], _alpha0_probe_counts(inst) + step)


def test_run_rejects_wrong_rule_for_prox():
    inst = make_dual_entropy(69, 10, 5)
    with pytest.raises(TypeError):
        run_solver(inst, AdGD1(), RunConfig(max_iter=5, grad_tol=1e-8))


def test_config_validation():
    with pytest.raises(ValueError):
        RunConfig(max_iter=0)
    with pytest.raises(ValueError):
        RunConfig(grad_tol=0.0)
    with pytest.raises(ValueError):
        RunConfig(alpha0="invalid")
    with pytest.raises(ValueError):
        RunConfig(alpha0=-1.0)
    with pytest.raises(ValueError):
        Armijo(s=0.9, r=0.5)
    with pytest.raises(ValueError):
        Armijo(s=1.2, r=1.5)
    with pytest.raises(ValueError):
        BadGD(c=0.5)
    with pytest.raises(ValueError):
        FixedStep(alpha=0.0)


# ---------------------------------------------------------------------------
# The spectral box's warm start (mle)
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("rule", [AdGD2(), Armijo(1.2, 0.5)], ids=["adgd2", "armijo"])
def test_mle_runs_on_one_instance_do_not_share_a_warm_start(rule):
    # a run refines only bases of its own factorizations: rerunning an
    # instance, after a run of another rule on it, writes the same CSV as a
    # run on a freshly built instance
    cfg = RunConfig(max_iter=60, alpha0="search", record_trace=False)
    other = Armijo(1.2, 0.5) if rule == AdGD2() else AdGD2()
    inst = make_problem("mle", 1)
    first = trace_csv_text(run_solver(inst, rule, cfg))
    run_solver(inst, other, cfg)
    again = trace_csv_text(run_solver(inst, rule, cfg))
    fresh = trace_csv_text(run_solver(make_problem("mle", 1), rule, cfg))
    assert first == again == fresh


@pytest.mark.parametrize("rule,max_iter", [(AdGD2(), 300), (Armijo(1.2, 0.5), 100)],
                         ids=["adgd2", "armijo"])
@pytest.mark.parametrize("seed", [1, 2])
def test_mle_warm_prox_outputs_match_lapack(monkeypatch, seed, rule, max_iter):
    gaps, certified = [], []
    prox, refine = SpectralBox.prox, adgd.prox.refine_eigh

    def checked_prox(box, alpha, z):
        x = prox(box, alpha, z)
        ref = project_spectral_box(z.reshape(box.n, box.n), box.l, box.u).ravel()
        gaps.append(np.max(np.abs(x - ref)) / (1.0 + np.max(np.abs(z))))
        return x

    def counted_refine(Z, Q):
        found = refine(Z, Q)
        certified.append(found is not None)
        return found

    monkeypatch.setattr(SpectralBox, "prox", checked_prox)   # before the box is built
    monkeypatch.setattr(adgd.prox, "refine_eigh", counted_refine)
    trace = run_solver(make_problem("mle", seed), rule,
                       RunConfig(max_iter=max_iter, record_rows=False, record_trace=False))
    assert trace.iters == max_iter
    assert max(gaps) <= 1e-12
    assert trace.counters.eig_count == trace.counters.prox_evals == len(gaps)
    assert sum(certified) >= 0.9 * len(gaps)
