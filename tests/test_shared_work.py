"""f's value and gradient share their intermediate only where it cannot be stale.

nmf, dual_entropy, curve and lrmc keep what ``value`` computed at a read-only
point, and the gradient at that same array object takes it
(``adgd.core.Kept``).  For drawn points and call orders, every value and
gradient must be bit-identical to what a fresh instance returns at a private
copy of the point.  The counting test shows the reuse is real: the work done
is the work the counters charge.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import adgd.core
import adgd.problems
from adgd.problems import make_problem
from adgd.solvers import AdGD2, Armijo, RunConfig, run_solver

SHARING = ("nmf", "dual_entropy", "curve", "lrmc")
PROPERTY_SETTINGS = settings(max_examples=40, deadline=None, derandomize=True, database=None)

# points 0 and 1 are read-only (1 is a prox output), point 2 is writeable
OPS = st.one_of(st.tuples(st.sampled_from(["value", "gradient"]), st.integers(0, 2)),
                st.just(("mutate", 2)), st.just(("mutate_gradient", None)))
SCENARIOS = [
    [("value", 0), ("gradient", 0)],
    [("value", 0), ("value", 1), ("gradient", 0), ("gradient", 1)],
    [("value", 2), ("mutate", 2), ("gradient", 2)],
    [("value", 1), ("gradient", 1), ("mutate_gradient", None), ("gradient", 1)],
]


@given(kind=st.sampled_from(SHARING), scale=st.sampled_from(["desk", "paper"]),
       seed=st.integers(0, 2 ** 32 - 1), ops=st.lists(OPS, max_size=10))
@PROPERTY_SETTINGS
def test_a_kept_intermediate_is_never_stale(kind, scale, seed, ops):
    inst, fresh = make_problem(kind, 1, scale), make_problem(kind, 1, scale)
    f, g = inst.composite.f, inst.composite.g
    rng = np.random.default_rng(seed)
    points = [inst.sample_point(rng), g.prox(1.0, inst.sample_point(rng)),
              inst.sample_point(rng)]
    points[0].flags.writeable = False
    assert not points[1].flags.writeable and points[2].flags.writeable
    for sequence in [*SCENARIOS, ops]:
        returned = None
        for op, i in sequence:
            if op == "mutate":
                points[i][rng.integers(points[i].size)] += 0.25
            elif op == "mutate_gradient":
                if returned is not None:
                    returned *= 3.0
            elif op == "value":
                assert f.value(points[i]) == fresh.composite.f.value(points[i].copy())
            else:
                returned = f.gradient(points[i])
                assert np.array_equal(returned, fresh.composite.f.gradient(points[i].copy()))


def _counting_keepers(monkeypatch):
    """Count every intermediate the problems build from here on: each call of
    a ``Kept``'s ``make`` is one U V' - A product on nmf."""
    made = [0]

    class Counting(adgd.core.Kept):
        def __init__(self, make):
            def counted(x):
                made[0] += 1
                return make(x)
            super().__init__(counted)

    monkeypatch.setattr(adgd.problems, "Kept", Counting)
    return made


def _counting_logsumexps(monkeypatch):
    calls = [0]
    real = adgd.problems._logsumexp

    def counted(a):
        calls[0] += 1
        return real(a)

    monkeypatch.setattr(adgd.problems, "_logsumexp", counted)
    return calls


@pytest.mark.parametrize("kind", ["dual_entropy", "nmf"])
def test_the_counted_reuse_is_the_work_done(kind, monkeypatch):
    """Desk seed 1, 3,000 steps with rows.  Under Armijo(1.2, 0.5) each f
    value and gradient builds the intermediate once, but the gradient at an
    accepted trial, which takes it: exactly func + grad - reused builds.
    Under AdGD2 only the values at x^0, x^1 (the alpha_0 search's last
    probe took its gradient) and the last iterate build one for nothing."""
    count = _counting_logsumexps(monkeypatch) if kind == "dual_entropy" \
        else _counting_keepers(monkeypatch)
    cfg = RunConfig(max_iter=3000, grad_tol=1e-300, record_trace=False)
    inst = make_problem(kind, 1)
    for rule in (Armijo(1.2, 0.5), AdGD2()):
        count[0] = 0
        c = run_solver(inst, rule, cfg).counters
        if rule.linesearch:
            assert c.reused_evals == 3000
            assert count[0] == c.func_evals + c.grad_evals - c.reused_evals
        else:
            assert c.func_evals == 0
            assert count[0] <= c.grad_evals + 3
