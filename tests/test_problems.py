import math

import numpy as np
import pytest

from scipy.special import expit, logsumexp

from adgd.core import NumericalError
from adgd.problems import (
    EXPERIMENT_KINDS,
    KINDS,
    _logsumexp,
    _sigmoid,
    counterexample_f,
    instance_descriptor,
    instance_from_descriptor,
    make_counterexample,
    make_dual_entropy,
    make_least_squares,
    make_logistic,
    make_lrmc,
    make_min_curve,
    make_mle,
    make_nmf,
    make_problem,
    make_quadratic,
    make_quartic,
)
from adgd.accounting import METRICS
from adgd.prox import project_affine
from adgd.solvers import AdGD2, BadGD, RunConfig, run_solver

from oracles import finite_difference_gradient


# ---------------------------------------------------------------------------
# counterexample objective
# ---------------------------------------------------------------------------

def test_counterexample_at_origin():
    assert counterexample_f(0.0) == (0.0, 0.0)


def test_counterexample_branch_junction():
    v, d = counterexample_f(1.0)
    assert v == 0.5 and d == 1.0
    # tail branch approaches the same limits
    v_out, d_out = counterexample_f(1.0 + 1e-12)
    assert abs(v_out - 0.5) < 1e-11 and abs(d_out - 1.0) < 1e-11


def test_counterexample_tail_values():
    v, d = counterexample_f(3.0)
    assert abs(v - (4.5 - 2.0 * math.log(2.0))) < 1e-14
    assert abs(d - 1.5) < 1e-15
    vm, dm = counterexample_f(-3.0)
    assert vm == v and dm == -d


def test_counterexample_slope_and_curvature_bounds():
    # |f'| <= 2, 1-Lipschitz derivative, and a strong-convexity floor on
    # bounded sets: |f'(x)-f'(y)| >= |x-y| / (1+X)^2 over [-X, X]
    X = 25.0
    rng = np.random.default_rng(0)
    xs = np.concatenate([rng.uniform(-X, X, 400), [-1.0, 1.0, 0.0]])
    mu = 1.0 / (1.0 + X) ** 2
    for _ in range(400):
        x, y = rng.choice(xs), rng.choice(xs)
        if x == y:
            continue
        dx, dy = counterexample_f(x)[1], counterexample_f(y)[1]
        assert abs(dx) <= 2.0 and abs(dy) <= 2.0
        assert abs(dx - dy) <= abs(x - y) * (1 + 1e-12)
        assert abs(dx - dy) >= mu * abs(x - y) * (1 - 1e-9)


def test_divergent_variant_iterate_pattern():
    # same-sign pairs, alternation across pairs, flips at least double the
    # magnitude, even subsequence grows; the odd-step half-bound holds for
    # c >= 2 (for c = 1 the shrink factor sits just below one half)
    for c, x0 in [(1.0, 12.0), (2.0, 20.0)]:
        inst = make_counterexample(x0)
        tr = run_solver(inst, BadGD(c), RunConfig(max_iter=200, grad_tol=1e-14))
        assert tr.status == "diverged"
        xs = tr.xs.ravel()
        blocks = 0
        for k in range(0, xs.size // 2):
            i = 2 * k
            if i + 2 >= xs.size or not np.isfinite(xs[i + 1]):
                break
            assert np.sign(xs[i]) == np.sign(xs[i + 1])
            assert np.sign(xs[i + 2]) != np.sign(xs[i])
            assert abs(xs[i + 2]) > 2.0 * abs(xs[i + 1])
            assert abs(xs[i + 2]) > abs(xs[i])
            if c >= 2.0:
                assert 2.0 * abs(xs[i + 1]) > abs(xs[i])
            blocks += 1
        assert blocks >= 5


# ---------------------------------------------------------------------------
# generators: reproducibility + analytics
# ---------------------------------------------------------------------------

ALL_MAKERS = [
    lambda: make_quadratic(31, 12, 60.0),
    lambda: make_least_squares(32, 18, 9),
    lambda: make_logistic(33, 14),
    make_quartic,
    make_counterexample,
    lambda: make_mle(34, 8),
    lambda: make_lrmc(35, 10, 3),
    lambda: make_min_curve(36, 5, 20),
    lambda: make_nmf(37, 8, 3),
    lambda: make_dual_entropy(38, 12, 6),
]


@pytest.mark.parametrize("maker", ALL_MAKERS)
def test_regeneration_bit_identical(maker):
    a, b = maker(), maker()
    assert np.array_equal(a.x0, b.x0)
    rng = np.random.default_rng(1)
    x = a.sample_point(rng)
    assert a.composite.f.value(x) == b.composite.f.value(x)
    assert np.array_equal(a.composite.f.gradient(x), b.composite.f.gradient(x))


@pytest.mark.parametrize("maker", ALL_MAKERS)
def test_descriptor_round_trip(maker):
    a = maker()
    b = instance_from_descriptor(instance_descriptor(a))
    assert b.kind == a.kind
    assert np.array_equal(a.x0, b.x0)
    x = a.sample_point(np.random.default_rng(2))
    assert a.composite.f.value(x) == b.composite.f.value(x)


def test_quadratic_solution_and_constant():
    inst = make_quadratic(41, 30, 25.0)
    assert inst.composite.f.lipschitz == 25.0
    g = inst.composite.f.gradient(inst.solution)
    assert np.linalg.norm(g) <= 1e-9


def test_least_squares_textbook_gradient():
    inst = make_least_squares(42, 25, 10)
    x = np.random.default_rng(3).normal(size=10)
    fd = finite_difference_gradient(inst.composite.f, x)
    assert np.linalg.norm(fd - inst.composite.f.gradient(x)) <= 1e-4
    assert np.linalg.norm(inst.composite.f.gradient(inst.solution)) <= 1e-8


def test_logistic_symmetry_and_constant():
    inst = make_logistic(43, 16)
    assert abs(inst.composite.f.value(np.zeros(16)) - math.log(2.0)) < 1e-15
    # L = ||a||^2 / 4: recover a through the gradient at zero
    g0 = inst.composite.f.gradient(np.zeros(16))
    assert abs(inst.composite.f.lipschitz - float(g0 @ g0)) < 1e-12


def test_quartic_gradient_value():
    inst = make_quartic()
    assert inst.composite.f.gradient(np.array([2.0]))[0] == 32.0
    assert inst.composite.f.lipschitz is None


def test_mle_data_matrix_psd():
    inst = make_mle(44, 12)
    n = inst.metadata["n"]
    X = inst.x0.reshape(n, n)
    Y = inst.composite.f.gradient(inst.x0).reshape(n, n) + np.linalg.inv(X)
    w = np.linalg.eigvalsh(0.5 * (Y + Y.T))
    assert w[0] >= -1e-9


@pytest.mark.parametrize("scale", ["desk", "paper"])
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_mle_solution_is_a_prox_gradient_fixed_point(scale, seed):
    inst = make_problem("mle", seed, scale)
    f, g, x = inst.composite.f, inst.composite.g, inst.solution
    assert g.value(x) == 0.0
    for alpha in (0.01, 1.0, 100.0):
        assert np.linalg.norm(x - g.prox(alpha, x - alpha * f.gradient(x))) <= 1e-9


@pytest.mark.parametrize("scale", ["desk", "paper"])
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_mle_at_prox_output_matches_full_factorization(scale, seed):
    # at the box's prox output, value and gradient come from its eigenvalues;
    # a copy of the same point takes slogdet and inv
    inst = make_problem("mle", seed, scale)
    f, g = inst.composite.f, inst.composite.g
    n = inst.metadata["n"]
    rng = np.random.default_rng(seed)
    M = rng.normal(size=(n, n))
    for z in (inst.x0 - f.gradient(inst.x0),                      # clips at l
              inst.sample_point(rng) + 3.0 * (M + M.T).ravel()):  # clips at l and u
        x = g.prox(1.0, z)
        assert x is g.prox.__self__.x
        value, full = f.value(x), f.value(x.copy())
        assert abs(value - full) <= 1e-12 * abs(full)
        grad, full = f.gradient(x), f.gradient(x.copy())
        assert np.linalg.norm(grad - full) <= 1e-10 * np.linalg.norm(full)


def test_lrmc_gradient_zero_off_mask():
    inst = make_lrmc(45, 12, 3)
    n = inst.metadata["n"]
    rng = np.random.default_rng(45)
    A = rng.normal(size=(n, 3)) @ rng.normal(size=(n, 3)).T
    ones = np.ones((n, n))
    G = inst.composite.f.gradient((A + ones).ravel()).reshape(n, n)
    # residual is (approximately) the all-ones matrix restricted to the mask,
    # and exactly zero off it
    off = G == 0.0
    assert int((~off).sum()) == int(0.2 * n * n)
    assert np.allclose(G[~off], 1.0, atol=1e-12)
    G2 = inst.composite.f.gradient((A + 2 * ones).ravel()).reshape(n, n)
    assert np.array_equal(G2 == 0.0, off)


def test_lrmc_value_at_ground_truth():
    inst = make_lrmc(46, 10, 3)
    rng = np.random.default_rng(46)
    U = rng.normal(size=(10, 3))
    V = rng.normal(size=(10, 3))
    A = U @ V.T
    assert inst.composite.f.value(A.ravel()) == 0.0


def test_curve_objective_floor():
    inst = make_min_curve(47, 5, 30)
    rng = np.random.default_rng(5)
    for _ in range(20):
        x = rng.normal(size=30)
        assert inst.composite.f.value(x) >= 30 - 1


def test_curve_build_takes_one_qr(monkeypatch):
    calls = {}

    def count(name):
        decompose = getattr(np.linalg, name)

        def counted(*args, **kwargs):
            calls[name] = calls.get(name, 0) + 1
            return decompose(*args, **kwargs)
        monkeypatch.setattr(np.linalg, name, counted)

    count("qr")
    count("matrix_rank")
    inst = make_min_curve(3, 20, 100)
    assert calls == {"qr": 1}   # A^+ serves the prox and x^0
    rng = np.random.default_rng(3)
    A = rng.normal(size=(20, 100))
    b = A @ rng.normal(size=100)
    assert np.array_equal(inst.x0, project_affine(np.zeros(100), A, b))


def test_curve_rank_deficient_draw_raises(monkeypatch):
    class Ones:
        def normal(self, size):
            return np.ones(size)

    monkeypatch.setattr(np.random, "default_rng", lambda seed: Ones())
    with pytest.raises(NumericalError, match="rank-deficient"):
        make_min_curve(1, 3, 6)


def test_curve_run_stays_feasible():
    inst = make_min_curve(48, 6, 24)
    tr = run_solver(inst, AdGD2(), RunConfig(max_iter=400, grad_tol=1e-10))
    # rebuild the constraint data to scan the trajectory
    twin = make_min_curve(48, 6, 24)
    g = twin.composite.g
    for x in tr.xs:
        assert g.value(x) == 0.0


def test_nmf_zero_at_planted_factors():
    inst = make_nmf(49, 9, 3)
    rng = np.random.default_rng(49)
    B = np.maximum(rng.normal(size=(9, 3)), 0.0)
    C = np.maximum(rng.normal(size=(9, 3)), 0.0)
    point = np.concatenate([B.ravel(), C.ravel()])
    assert inst.composite.f.value(point) == 0.0
    assert np.array_equal(inst.solution, point)


def test_nmf_run_stays_nonnegative():
    inst = make_nmf(50, 8, 3)
    tr = run_solver(inst, AdGD2(), RunConfig(max_iter=300, grad_tol=1e-10))
    assert np.min(tr.xs[1:]) >= 0.0
    assert not inst.convex


def test_dual_entropy_stationarity_identity():
    # grad_mu = 1 - e^{-mu-1} sum_i e^{-a_i'lam} vanishes exactly where the
    # exponential sum equals one; solve the monotone scalar equation and
    # verify the gradient coordinate agrees
    inst = make_dual_entropy(51, 10, 6)
    lam = np.abs(np.random.default_rng(6).normal(size=10))
    f = inst.composite.f

    def grad_mu(mu):
        return f.gradient(np.concatenate([lam, [mu]]))[-1]

    lo, hi = -50.0, 50.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if grad_mu(mid) < 0:
            lo = mid
        else:
            hi = mid
    assert abs(grad_mu(0.5 * (lo + hi))) <= 1e-9
    # far from the root the sign structure matches the identity
    assert grad_mu(50.0) > 0 and grad_mu(-50.0) < 0


def test_dual_entropy_bounded_below_on_run():
    inst = make_dual_entropy(52, 20, 10)
    tr = run_solver(inst, AdGD2(), RunConfig(max_iter=4000, grad_tol=1e-11))
    assert np.isfinite(tr.F_final)
    assert tr.F_final > -1e6
    late = tr.F_steps[-100:]
    assert late.max() - late.min() <= 1e-6 * (1 + abs(tr.F_final))


def test_logsumexp_bit_identical_to_scipy():
    # scipy stays the oracle: the dual_entropy traces were produced with it
    rng = np.random.default_rng(61)
    for scale in (1e-3, 1.0, 30.0, 300.0):
        for i in range(400):
            a = scale * rng.normal(size=int(rng.integers(1, 160)))
            if i % 4 == 0:
                a[rng.integers(0, a.size, size=3)] = a.max()   # tied maxima
            if i % 5 == 0:
                a = np.round(a)                                 # ties below the max
            assert _logsumexp(a) == logsumexp(a), (scale, i)
    a = np.full(7, 2.5)
    assert _logsumexp(a) == logsumexp(a)


def test_sigmoid_bit_identical_to_expit():
    # make_logistic's gradient used scipy.special.expit before it used _sigmoid
    edges = [0.0, -0.0, 1e-300, -1e-300, 709.0, -709.0, 710.0, -710.0, 746.0, -746.0,
             math.inf, -math.inf]
    sample = np.random.default_rng(62).normal(scale=300.0, size=4000)
    for t in [*edges, *sample.tolist()]:
        assert _sigmoid(t) == float(expit(t)), t
    assert math.isnan(_sigmoid(math.nan)) and math.isnan(expit(math.nan))


def test_dual_entropy_exponent_overflow_raises():
    inst = make_dual_entropy(53, 8, 5)
    x = np.zeros(9)
    x[-1] = -800.0   # exponent s - mu - 1 > 700
    with pytest.raises(NumericalError):
        inst.composite.f.value(x)
    with pytest.raises(NumericalError):
        inst.composite.f.gradient(x)


# each kind's maker arguments at (desk, paper) scale, defaults included: a
# changed maker default must not silently change a scale
SCALE_PARAMS = {
    "quadratic": ({"n": 50, "condition_number": 100.0},
                  {"n": 200, "condition_number": 1000.0}),
    "least_squares": ({"n": 80, "d": 40}, {"n": 500, "d": 200}),
    "logistic": ({"d": 30}, {"d": 100}),
    "quartic": ({}, {}),
    "counterexample": ({"x0": 12.0}, {"x0": 12.0}),
    "mle": ({"n": 50, "l": 0.1, "u": 10.0, "M": 50}, {"n": 100, "l": 0.1, "u": 10.0, "M": 50}),
    "lrmc": ({"n": 60, "r": 10, "fraction": 0.2}, {"n": 100, "r": 20, "fraction": 0.2}),
    "curve": ({"m": 20, "n": 100}, {"m": 50, "n": 200}),
    "nmf": ({"n": 60, "r": 10, "start_index": 0}, {"n": 100, "r": 20, "start_index": 0}),
    "dual_entropy": ({"m": 100, "n": 50}, {"m": 500, "n": 100}),
}


@pytest.mark.parametrize("kind", KINDS)
def test_scales_defined(kind):
    assert set(SCALE_PARAMS) == set(KINDS)
    assert KINDS[kind].metric in METRICS
    for scale, params in zip(("desk", "paper"), SCALE_PARAMS[kind]):
        inst = make_problem(kind, seed=9, scale=scale)
        assert inst.composite.f.dimension >= 1
        desc = instance_descriptor(inst)
        assert (desc["kind"], desc["params"]) == (kind, params)
        assert all(type(desc["params"][k]) is type(v) for k, v in params.items())


@pytest.mark.parametrize("scale", ["Paper", "nonsense", ""])
def test_make_problem_rejects_an_unknown_scale(scale):
    with pytest.raises(ValueError, match="unknown scale"):
        make_problem("mle", 1, scale)


def test_make_problem_rejects_an_unknown_kind():
    with pytest.raises(ValueError, match="unknown problem kind 'banana'"):
        make_problem("banana", 1)


def test_experiment_kinds_are_the_kinds_with_a_prox_part():
    # parse_config rejects rules without prox support on EXPERIMENT_KINDS
    with_prox = {kind for kind in KINDS
                 if make_problem(kind, seed=1, scale="desk").composite.has_prox_part}
    assert with_prox == set(EXPERIMENT_KINDS)
