"""Per-layer measurements that need no spans: oracle call times and the
cost of recording rows.  Run only in traced runs, after the timed rounds.
"""

from __future__ import annotations

import statistics
import time

import numpy as np
from adgd.problems import make_problem
from adgd.solvers import AdGD2, RunConfig, run_solver

KINDS = ("mle", "lrmc", "curve", "nmf", "dual_entropy")
POINTS = 5          # seeded points per instance
CALLS = 5           # timed calls per point
# iterations per rows-on / rows-off solve, about 0.1 s each at desk scale
ROWS_ITERS = {"mle": 150, "lrmc": 150, "curve": 800, "nmf": 1000, "dual_entropy": 500}
ROWS_PAIRS = 7


def _per_call_us(fn, args_list) -> float:
    times = []
    clock = time.perf_counter
    for args in args_list:
        for _ in range(CALLS):
            t0 = clock()
            fn(*args)
            times.append(clock() - t0)
    return 1e6 * statistics.median(times)


def oracle_call_times(seed: int) -> dict:
    """Median per-call time of f.value, f.gradient, g.prox and g.value."""
    out = {}
    for scale in ("desk", "paper"):
        for kind in KINDS:
            inst = make_problem(kind, seed, scale)
            rng = np.random.default_rng([seed, 17])
            pts = [(inst.sample_point(rng),) for _ in range(POINTS)]
            c = inst.composite
            tag = f"{kind}.{scale}"
            out[f"problems.value_us.{tag}"] = (_per_call_us(c.f.value, pts), "us")
            out[f"problems.gradient_us.{tag}"] = (_per_call_us(c.f.gradient, pts), "us")
            out[f"prox.prox_us.{tag}"] = (_per_call_us(c.g.prox, [(1.0, p) for (p,) in pts]),
                                          "us")
            out[f"prox.value_us.{tag}"] = (_per_call_us(c.g.value, pts), "us")
    return out


def rows_overhead(seed: int) -> dict:
    """Per-iteration time with rows recorded over rows off, at desk scale.

    Rows-off and rows-on solves alternate, and the metric is the median of
    the pairs' ratios, so that a slow spell of the machine hits both sides.
    """
    out = {}
    for kind in KINDS:
        inst = make_problem(kind, seed, "desk")
        ratios = []
        for _ in range(ROWS_PAIRS):
            per_iter = []
            for rows in (False, True):
                cfg = RunConfig(max_iter=ROWS_ITERS[kind], grad_tol=1e-300,
                                record_trace=False, record_rows=rows)
                t0 = time.perf_counter()
                tr = run_solver(inst, AdGD2(), cfg)
                per_iter.append((time.perf_counter() - t0) / tr.iters)
            ratios.append(per_iter[1] / per_iter[0])
        out[f"solvers.rows_overhead.{kind}"] = (statistics.median(ratios), "ratio")
    return out


def alpha0_probes(work) -> float:
    """Initial-stepsize probes per round, from row 0 of each CSV of the first round."""
    rounds = getattr(work, "rounds", None)
    if not rounds:
        return 0.0
    cols = rounds[0]["cols"].values()
    return float(sum(max(float(c["grad_evals"][0]) - 1.0, 0.0) for c in cols if len(c["iter"])))
