"""The methods' invariances over whole input classes, drawn by hypothesis.

The rules see f only through gradient differences, step lengths and, under
backtracking, a sufficient-decrease test whose terms all scale with f.  So
scaling f by c = 2^j, with alpha_0 -> alpha_0 / c and grad_tol -> c grad_tol,
must leave a run bit-identical: every product and quotient by a power of two
is exact, and so is the square root of c^2 in a norm.  alpha_k c, the
iterates, the iteration count and the status all match.  Every prox part here
is an indicator or zero, so c g = g and its prox ignores the step.
"""

import functools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from adgd.problems import KINDS, make_problem
from adgd.solvers import AdGD1, AdGD2, Armijo, OldAdGD, RunConfig, run_solver

from oracles import with_f_scaled

PROPERTY_SETTINGS = settings(max_examples=5, deadline=None, derandomize=True, database=None)
STEPS = 60
GRAD_TOL = 1e-10
SMOOTH = ("quadratic", "least_squares", "logistic")
NON_TOY = tuple(kind for kind in KINDS if kind not in ("quartic", "counterexample"))


@functools.lru_cache(maxsize=None)
def _instance(kind, seed):
    """A desk-scale instance and the alpha_0 its search picks, given explicitly
    to both runs of a pair."""
    inst = make_problem(kind, seed)
    return inst, run_solver(inst, AdGD2(), RunConfig(max_iter=1)).alpha0


CASES = [(rule, kind) for rule in (AdGD2(), Armijo(1.2, 0.5)) for kind in NON_TOY] + \
    [(rule, kind) for rule in (AdGD1(), OldAdGD()) for kind in SMOOTH]


@pytest.mark.parametrize("rule, kind", CASES, ids=[f"{r.kind}-{k}" for r, k in CASES])
def test_runs_are_equivariant_under_power_of_two_scaling(rule, kind):
    @PROPERTY_SETTINGS
    @given(st.integers(1, 4), st.integers(-20, 20))
    def check(seed, j):
        inst, alpha0 = _instance(kind, seed)
        c = 2.0 ** j
        base = run_solver(inst, rule, RunConfig(max_iter=STEPS, grad_tol=GRAD_TOL,
                                                alpha0=alpha0, record_trace=False))
        scaled = run_solver(with_f_scaled(inst, c), rule,
                            RunConfig(max_iter=STEPS, grad_tol=c * GRAD_TOL, alpha0=alpha0 / c,
                                      record_trace=False))
        assert (scaled.iters, scaled.status) == (base.iters, base.status)
        assert np.array_equal(scaled.alphas * c, base.alphas)
        assert np.array_equal(scaled.x_final, base.x_final)

    check()
