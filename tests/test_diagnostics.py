import copy
import dataclasses
import math

import numpy as np
import pytest

from adgd.core import ReferenceSolution, SmoothFunction, composite, evaluate_composite
from adgd.diagnostics import (
    check_divergence_pattern,
    check_energy,
    check_feasibility,
    check_gradient_monotonicity,
    check_rate,
    check_stepsize_bounds,
    check_stepsize_sum,
    check_subgradient_monotonicity,
    detect_breakpoints,
    run_certificates,
    trajectory_curvature_sweep,
)
from adgd.problems import EXPERIMENT_KINDS, make_counterexample, make_problem, make_quadratic
from adgd.prox import nonneg_indicator
from adgd.solvers import AdGD1, AdGD2, Armijo, BadGD, FixedStep, RunConfig, Trace, run_solver

from oracles import (
    loop_detect_breakpoints,
    loop_energy_gd,
    loop_energy_prox,
    loop_gradient_monotonicity,
    loop_rate,
    loop_stepsize_bounds,
    loop_stepsize_sum,
    loop_subgradient_monotonicity,
)


def quad_reference(inst):
    return ReferenceSolution(
        x_star=inst.solution,
        F_star=evaluate_composite(inst.composite, inst.solution),
        tolerance=1e-14,
        provenance="closed form",
    )


@pytest.fixture(scope="module")
def quad_run():
    inst = make_quadratic(70, 25, 60.0)
    tr = run_solver(inst, AdGD2(), RunConfig(max_iter=3000, grad_tol=1e-11))
    return inst, tr, quad_reference(inst)


@pytest.fixture(scope="module")
def orthant_run():
    rng = np.random.default_rng(71)
    M = rng.normal(size=(12, 12))
    Q = M @ M.T + 0.5 * np.eye(12)
    target = rng.normal(size=12)
    b = Q @ target
    f = SmoothFunction(12, lambda x: 0.5 * float(x @ (Q @ x)) - float(b @ x),
                       lambda x: Q @ x - b)
    comp = composite(f, nonneg_indicator())

    class Inst:
        composite = comp
        x0 = np.abs(rng.normal(size=12))
        kind = "orthant_quadratic"
        convex = True

    inst = Inst()
    long = run_solver(inst, AdGD2(), RunConfig(max_iter=200000, grad_tol=1e-13,
                                               record_trace=False, record_rows=False))
    ref = ReferenceSolution(long.x_final, long.F_final, max(long.final_residual, 1e-13),
                            "long run")
    tr = run_solver(inst, AdGD2(), RunConfig(max_iter=2000, grad_tol=1e-10))
    return inst, tr, ref


# ---------------------------------------------------------------------------
# energy certificates
# ---------------------------------------------------------------------------

def test_energy_gd_passes_on_quadratic(quad_run):
    _, tr, ref = quad_run
    rep = check_energy(tr, ref)
    assert rep.name == "energy_decrease_gd"
    assert rep.passed and rep.n_checked == tr.iters - 1


def test_energy_gd_flags_corrupted_stepsize(quad_run):
    # corrupt the stepsize at an index where the inequality actually depends
    # on it adversarially (the alpha coefficient of LHS - RHS is positive);
    # at indices right after a large objective drop the corruption would
    # relax the inequality instead
    _, tr, ref = quad_run
    F, a, th = tr.F_values, tr.alphas, tr.thetas
    Fs = ref.F_star
    n = tr.iters
    per_alpha = (2 + 3 * th[1:n]) * (F[1:n] - Fs) - 3 * th[1:n] * (F[:n - 1] - Fs)
    k_star = 1 + int(np.argmax(a[1:n] * per_alpha))
    bad = copy.deepcopy(tr)
    bad.alphas = bad.alphas.copy()
    bad.alphas[k_star] *= 20.0
    rep = check_energy(bad, ref)
    assert not rep.passed
    assert rep.worst_iteration == k_star


def test_energy_gd_requires_reference(quad_run):
    _, tr, _ = quad_run
    with pytest.raises(ValueError, match="reference required"):
        check_energy(tr, None)


def test_energy_stationary_trace_is_flat():
    # hand-built trace resting at the anchor: both sides vanish
    d = 3
    xs = np.zeros((4, d))
    tr = Trace(rule=AdGD2(), prox_run=False, alpha0=1.0, alpha0_searched=False,
               status="converged", iters=3,
               alphas=np.ones(3), thetas=np.ones(3), curvatures=np.zeros(3),
               step_norms=np.zeros(3), F_steps=np.zeros(3),
               counter_rows=np.zeros((3, 7), dtype=np.int64),
               F_initial=0.0, x_final=xs[-1], xs=xs, grads=np.zeros((4, d)))
    ref = ReferenceSolution(np.zeros(d), 0.0, 0.0, "exact")
    rep = check_energy(tr, ref)
    assert rep.passed
    assert abs(rep.worst_violation + rep.tolerance) <= 1e-15


def test_energy_prox_passes_on_orthant_quadratic(orthant_run):
    _, tr, ref = orthant_run
    rep = check_energy(tr, ref)
    assert rep.name == "energy_decrease_prox"
    assert rep.passed and rep.n_checked == tr.iters - 1


def test_energy_prox_reduces_to_gd_without_g(quad_run):
    _, tr, ref = quad_run
    gd = loop_energy_gd(tr, ref)
    energy = check_energy(tr, ref)
    # with v = 0, a_k^2 ||S^k||^2 = ||x^{k+1}-x^k||^2: the step-norm form term by term
    assert abs(gd.worst_violation - energy.worst_violation) <= 1e-9 * (1 + abs(gd.worst_violation))
    assert gd.worst_iteration == energy.worst_iteration
    assert (gd.name, gd.n_checked) == (energy.name, energy.n_checked)


def test_corrupted_subgradient_is_flagged(orthant_run):
    # the subgradients derive from the iterates: a fault in x^11 changes v^11
    _, tr, _ = orthant_run
    bad = copy.deepcopy(tr)
    bad.xs[11] += 5.0
    assert not np.array_equal(bad.subgrads[11], tr.subgrads[11])
    rep = check_subgradient_monotonicity(bad)
    assert not rep.passed


# ---------------------------------------------------------------------------
# monotonicity facts
# ---------------------------------------------------------------------------

def test_gradient_monotonicity_on_gd_runs(quad_run):
    _, tr, _ = quad_run
    assert check_gradient_monotonicity(tr).passed


def test_subgradient_monotonicity_on_prox_runs(orthant_run):
    _, tr, _ = orthant_run
    assert check_subgradient_monotonicity(tr).passed


# ---------------------------------------------------------------------------
# rate bound
# ---------------------------------------------------------------------------

def test_rate_bound_holds(quad_run):
    _, tr, ref = quad_run
    rep = check_rate(tr, ref)
    assert rep.passed


def test_rate_bound_first_step_edge(quad_run):
    # k = 1 uses R^2 with the 2 a0^2 ||grad F(x^0)||^2 term; check by hand
    _, tr, ref = quad_run
    R2 = (np.sum((tr.xs[0] - ref.x_star) ** 2)
          + 2 * tr.alphas[0] ** 2 * float(tr.grads[0] @ tr.grads[0])
          + tr.alphas[0] * (tr.F_values[0] - ref.F_star))
    lhs = tr.F_values[1] - ref.F_star
    assert lhs <= R2 / (2 * tr.alphas[1]) * (1 + 1e-6) + 2 * ref.tolerance


def test_rate_bound_not_asserted_for_fixed_step():
    inst = make_quadratic(72, 10, 20.0)
    tr = run_solver(inst, FixedStep(1.0 / 20.0),
                    RunConfig(max_iter=200, grad_tol=1e-10))
    rep = check_rate(tr, quad_reference(inst))
    assert rep.passed and rep.n_checked == 0
    assert "not applicable" in rep.note


def test_rate_bound_prox(orthant_run):
    _, tr, ref = orthant_run
    assert check_rate(tr, ref).passed


# ---------------------------------------------------------------------------
# stepsize facts
# ---------------------------------------------------------------------------

def test_stepsize_bounds_adgd2(quad_run):
    _, tr, _ = quad_run
    for rep in check_stepsize_bounds(tr):
        assert rep.passed


def test_stepsize_sum_reports_all_pass(quad_run):
    _, tr, _ = quad_run
    for rep in check_stepsize_sum(tr):
        assert rep.passed, rep.to_line()


def test_stepsize_sum_margin_on_quadratic(quad_run):
    # constant-curvature margin: sum alpha_i clearly above k / (sqrt2 L)
    _, tr, _ = quad_run
    L = tr.max_curvature
    sums = np.cumsum(tr.alphas[1:])
    ks = np.arange(1, tr.iters)
    assert np.all(sums >= ks / (math.sqrt(2.0) * L) * (1 - 1e-10))


def test_stepsize_sum_counterexample_small_theta_events():
    inst = make_counterexample(12.0)
    tr = run_solver(inst, AdGD2(), RunConfig(max_iter=20000, grad_tol=1e-11))
    reports = {r.name: r for r in check_stepsize_sum(tr)}
    assert reports["small_theta_branch"].passed
    assert reports["stepsize_floor"].passed
    assert reports["stepsize_sum"].passed


def test_stepsize_sum_not_applicable_without_search():
    inst = make_quadratic(73, 10, 20.0)
    tr = run_solver(inst, AdGD2(), RunConfig(max_iter=100, grad_tol=1e-10, alpha0=1e-4))
    reports = {r.name: r for r in check_stepsize_sum(tr)}
    assert "not searched" in reports["stepsize_sum"].note
    # floor still holds in the min{alpha0, .} form
    assert reports["stepsize_floor"].passed


# ---------------------------------------------------------------------------
# breakpoints
# ---------------------------------------------------------------------------

def test_no_breakpoints_on_constant_curvature():
    inst = make_quadratic(74, 10, 1.0)  # identity spectrum
    tr = run_solver(inst, AdGD2(), RunConfig(max_iter=500, grad_tol=1e-11))
    rec = detect_breakpoints(tr)
    assert rec.indices == []
    assert rec.dichotomy_ok


def test_synthetic_breakpoint_detected():
    L_ref = 2.0
    alphas = np.array([1.0, 1.0, 0.3 / L_ref, 1.0])
    thetas = np.array([1.0, 1.0, 0.2, 1.0])
    tr = Trace(rule=AdGD2(), prox_run=False, alpha0=1.0, alpha0_searched=True,
               status="max_iter", iters=4,
               alphas=alphas, thetas=thetas,
               curvatures=np.array([0.0, L_ref, L_ref, L_ref]),
               step_norms=np.ones(4), F_steps=np.zeros(4),
               counter_rows=np.zeros((4, 7), dtype=np.int64))
    rec = detect_breakpoints(tr, L_ref=L_ref)
    assert rec.indices == [2]


def test_dichotomy_on_shipped_runs(quad_run, orthant_run):
    for _, tr, _ in (quad_run, orthant_run):
        assert detect_breakpoints(tr).dichotomy_ok


# ---------------------------------------------------------------------------
# divergence pattern
# ---------------------------------------------------------------------------

def test_divergence_pattern_c1():
    inst = make_counterexample(12.0)
    tr = run_solver(inst, BadGD(1.0), RunConfig(max_iter=200, grad_tol=1e-14))
    rep = check_divergence_pattern(tr)
    assert rep.passed
    assert "blocks=6" in rep.note


def test_divergence_pattern_c2():
    inst = make_counterexample(20.0)
    tr = run_solver(inst, BadGD(2.0), RunConfig(max_iter=200, grad_tol=1e-14))
    rep = check_divergence_pattern(tr)
    assert rep.passed


def test_divergence_pattern_takes_c_from_the_rule_not_its_name():
    # BadGD(1.9999999) is named badgd_c2, but c < 2: no odd-step half-bound
    inst = make_counterexample(20.0)
    cfg = RunConfig(max_iter=200, grad_tol=1e-14)
    below, two = (run_solver(inst, BadGD(c), cfg) for c in (1.9999999, 2.0))
    assert below.rule_name == two.rule_name == "badgd_c2"
    assert check_divergence_pattern(below).n_checked == 24
    assert check_divergence_pattern(two).n_checked == 30


def test_divergence_pattern_control_converges():
    inst = make_counterexample(12.0)
    tr = run_solver(inst, AdGD2(), RunConfig(max_iter=10000, grad_tol=1e-8))
    assert tr.status == "converged"
    rep = check_divergence_pattern(tr)
    assert not rep.passed  # no divergence, hence no pattern to certify


# ---------------------------------------------------------------------------
# array forms against the per-step forms
# ---------------------------------------------------------------------------

def _comparison_runs():
    """(name, instance, rule, max_iter): the five experiment kinds at desk scale
    under the adaptive rule and one linesearch, plus GD runs with breakpoints."""
    runs = [(f"{kind}-{seed}-{name}", make_problem(kind, seed), rule, 300)
            for kind in EXPERIMENT_KINDS for seed in (1, 2)
            for name, rule in (("adaptive", AdGD2()), ("armijo", Armijo(1.2, 0.5)))]
    quad = make_quadratic(75, 30, 100.0)
    runs += [("quadratic-adgd1", quad, AdGD1(), 500), ("quadratic-adgd2", quad, AdGD2(), 500),
             ("counterexample-adgd2", make_counterexample(12.0), AdGD2(), 3000)]
    return runs


@pytest.fixture(scope="module")
def comparison_traces():
    traces = {name: run_solver(inst, rule, RunConfig(max_iter=max_iter, grad_tol=1e-12))
              for name, inst, rule, max_iter in _comparison_runs()}
    bad_alpha = copy.deepcopy(traces["quadratic-adgd2"])
    bad_alpha.alphas[40] *= 20.0
    bad_x = copy.deepcopy(traces["mle-1-adaptive"])
    bad_x.xs[40] += 1.0
    traces.update({"quadratic-adgd2-bad-alpha": bad_alpha, "mle-1-adaptive-bad-x": bad_x})
    return traces


def _loop_energy(tr, ref):
    # the prox form is check_energy's inequality; a GD run keeps the GD name
    if tr.prox_run or tr.rule.kind != "adgd2":
        return (loop_energy_prox if tr.prox_run else loop_energy_gd)(tr, ref)
    return dataclasses.replace(loop_energy_prox(tr, ref), name="energy_decrease_gd")


def _same_report(new, old):
    assert (new.name, new.passed, new.worst_iteration, new.n_checked, new.note) == \
        (old.name, old.passed, old.worst_iteration, old.n_checked, old.note)
    for got, want in ((new.worst_violation, old.worst_violation), (new.tolerance, old.tolerance)):
        assert got == want or abs(got - want) <= 1e-12 * (1 + abs(want))


@pytest.mark.parametrize("name", [run[0] for run in _comparison_runs()]
                         + ["quadratic-adgd2-bad-alpha", "mle-1-adaptive-bad-x"])
def test_array_certificates_match_the_per_step_forms(comparison_traces, name):
    tr = comparison_traces[name]
    anchor = ReferenceSolution(tr.x_final, tr.F_final, 1e-12, "last iterate")
    pairs = [
        (check_gradient_monotonicity(tr), loop_gradient_monotonicity(tr)),
        (check_subgradient_monotonicity(tr), loop_subgradient_monotonicity(tr)),
        *zip(check_stepsize_bounds(tr), loop_stepsize_bounds(tr), strict=True),
        *zip(check_stepsize_sum(tr), loop_stepsize_sum(tr), strict=True),
        (check_energy(tr, anchor), _loop_energy(tr, anchor)),
        (check_rate(tr, anchor), loop_rate(tr, anchor)),
    ]
    for new, old in pairs:
        _same_report(new, old)
    assert detect_breakpoints(tr) == loop_detect_breakpoints(tr)


# ---------------------------------------------------------------------------
# feasibility
# ---------------------------------------------------------------------------

def test_feasibility_flags_iterate_outside_box():
    inst = make_problem("mle", 1)
    n, u = inst.metadata["n"], inst.metadata["u"]
    tr = run_solver(inst, AdGD2(), RunConfig(max_iter=20, grad_tol=1e-12))
    rep = {r.name: r for r in run_certificates(inst, tr)}["feasibility"]
    assert rep.passed and rep.n_checked == tr.iters + 1
    bad = copy.deepcopy(tr)
    bad.xs[7] += u * np.eye(n).ravel()   # every eigenvalue above l + u
    rep = check_feasibility(inst, bad)
    assert not rep.passed and rep.worst_iteration == 7


@pytest.mark.parametrize("kind", ["curve", "nmf"])
def test_feasibility_tests_every_recorded_iterate_in_full(kind):
    """The indicator takes g = 0 at its own read-only prox output with no
    test; the recorded iterates are copies, so each gets the full test."""
    inst = make_problem(kind, 1)
    tr = run_solver(inst, AdGD2(), RunConfig(max_iter=20, grad_tol=1e-12))
    assert check_feasibility(inst, tr).passed
    bad = copy.deepcopy(tr)
    bad.xs[7][0] = -1.0 if kind == "nmf" else bad.xs[7][0] + 1.0   # off the orthant, off Ax = b
    rep = check_feasibility(inst, bad)
    assert not rep.passed and rep.worst_iteration == 7


def test_feasibility_not_applicable_without_prox(quad_run):
    inst, tr, _ = quad_run
    assert check_feasibility(inst, tr).note.startswith("not applicable")


# ---------------------------------------------------------------------------
# determinism, sweep
# ---------------------------------------------------------------------------

def test_reports_deterministic(quad_run):
    _, tr, ref = quad_run
    assert check_energy(tr, ref) == check_energy(tr, ref)
    assert check_rate(tr, ref) == check_rate(tr, ref)


def test_curvature_sweep_dominates_trace_estimate(quad_run):
    inst, tr, _ = quad_run
    L2 = trajectory_curvature_sweep(inst, tr, n_samples=100)
    assert L2 >= tr.max_curvature
    assert L2 <= inst.composite.f.lipschitz * (1 + 1e-9)
