import math

import numpy as np
import pytest

from adgd.core import DimensionMismatch, SmoothFunction, composite, evaluate_composite
from adgd.problems import (
    counterexample_f,
    make_counterexample,
    make_dual_entropy,
    make_least_squares,
    make_logistic,
    make_lrmc,
    make_min_curve,
    make_mle,
    make_nmf,
    make_quadratic,
    make_quartic,
)
from adgd.prox import nonneg_indicator

from oracles import cocoercivity_gap, finite_difference_gradient


def half_norm_sq(n):
    return SmoothFunction(n, lambda x: 0.5 * float(x @ x), lambda x: np.array(x, dtype=float))


def test_composite_zero_at_origin():
    p = composite(half_norm_sq(2))
    assert evaluate_composite(p, [0.0, 0.0]) == 0.0


def test_composite_indicator_infeasible_point():
    p = composite(half_norm_sq(1), nonneg_indicator())
    assert evaluate_composite(p, [-1.0]) == math.inf


def test_composite_quartic_value():
    quartic = make_quartic()
    assert evaluate_composite(quartic.composite, [2.0]) == 16.0


def test_composite_dimension_mismatch():
    p = composite(half_norm_sq(2))
    with pytest.raises(DimensionMismatch):
        evaluate_composite(p, [1.0, 2.0, 3.0])


def test_composite_deterministic():
    inst = make_least_squares(7, 20, 10)
    x = np.random.default_rng(0).normal(size=10)
    v1 = evaluate_composite(inst.composite, x)
    v2 = evaluate_composite(inst.composite, x)
    assert v1 == v2


def test_fd_quadratic_exact_to_rounding():
    f = half_norm_sq(1)
    g = finite_difference_gradient(f, [3.0], h=1e-5)
    assert abs(g[0] - 3.0) <= 1e-8


def test_fd_quartic():
    f = make_quartic().composite.f
    g = finite_difference_gradient(f, [1.0], h=1e-4)
    assert abs(g[0] - 4.0) <= 1e-6


def test_fd_counterexample_tail_slope():
    f = make_counterexample().composite.f
    g = finite_difference_gradient(f, [3.0], h=1e-6)
    assert abs(g[0] - 1.5) <= 1e-6
    assert counterexample_f(3.0)[1] == 1.5


SMALL_INSTANCES = [
    lambda: make_quadratic(11, 10, 50.0),
    lambda: make_least_squares(12, 15, 8),
    lambda: make_logistic(13, 12),
    make_quartic,
    make_counterexample,
    lambda: make_mle(14, 10),
    lambda: make_lrmc(15, 12, 3),
    lambda: make_min_curve(16, 6, 24),
    lambda: make_nmf(17, 10, 3),
    lambda: make_dual_entropy(18, 15, 8),
]


@pytest.mark.parametrize("maker", SMALL_INSTANCES)
def test_fd_matches_analytic_gradient(maker):
    inst = maker()
    rng = np.random.default_rng(99)
    for _ in range(100):
        x = inst.sample_point(rng)
        g = inst.composite.f.gradient(x)
        fd = finite_difference_gradient(inst.composite.f, x)
        assert np.linalg.norm(fd - g) <= 1e-4 * (1.0 + np.linalg.norm(g))


@pytest.mark.parametrize("maker", [lambda: make_quadratic(21, 15, 40.0),
                                   lambda: make_logistic(22, 10)])
def test_cocoercivity_with_known_constant(maker):
    inst = maker()
    f = inst.composite.f
    assert f.lipschitz is not None
    rng = np.random.default_rng(4)
    for _ in range(100):
        x = rng.normal(size=f.dimension)
        y = rng.normal(size=f.dimension)
        assert cocoercivity_gap(f, x, y, f.lipschitz) >= -1e-10
