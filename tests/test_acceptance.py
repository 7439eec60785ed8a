"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s`.  The session reference
cache is built lazily on first use, so a cold run pays the (cached)
reference cost inside the first criterion that needs it.
"""

import math
import time

import numpy as np
import pytest

from adgd.accounting import Counters, apply_event
from adgd.core import process_map
from adgd.diagnostics import (
    check_divergence_pattern,
    check_energy,
    check_gradient_monotonicity,
    check_rate,
    check_stepsize_bounds,
    check_stepsize_sum,
    check_subgradient_monotonicity,
)
from adgd.experiments import DEFAULT_ARMIJO_PAIRS, ops_to_accuracy, parse_config, run_experiment
from adgd.problems import make_counterexample, make_quadratic
from adgd.prox import project_l1_ball, project_nuclear_ball
from adgd.solvers import AdGD1, AdGD2, Armijo, BadGD, RunConfig, _alpha0_search, run_solver

from oracles import FixedCurvature, l1_project_scan, nuclear_project_scan

REPRO_BUDGET = {
    "mle": (4000, 1e-9),
    "lrmc": (500, 1e-10),
    "curve": (4000, 1e-10),
    "nmf": (3000, 1e-9),
    "dual_entropy": (30000, 1e-10),
}


def verdict(num, name, ok, detail=""):
    line = f"ACCEPTANCE {num} {name}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  ({detail})"
    print(line)
    assert ok, line


# ---------------------------------------------------------------------------
# 1. divergence reproduction
# ---------------------------------------------------------------------------

def test_criterion_1_divergence_pattern():
    t0 = time.monotonic()
    inst = make_counterexample(12.0)
    tr = run_solver(inst, BadGD(1.0), RunConfig(max_iter=200, grad_tol=1e-14))
    elapsed = time.monotonic() - t0

    ok = tr.status == "diverged" and tr.iters <= 200

    # independent pairwise verification of the sign/magnitude pattern; the run
    # goes on to its first non-finite iterate, float64 saturates the doubly-
    # exponential growth after six sign blocks, so the pairwise count is what
    # can be certified
    xs = tr.xs.ravel()
    pairs = 0
    pattern_ok = True
    for i in range(xs.size - 1):
        a, b = xs[i], xs[i + 1]
        if not np.isfinite(a):
            break
        if i % 2 == 0:
            pattern_ok &= bool(np.sign(a) == np.sign(b))
        else:
            pattern_ok &= bool(np.sign(b) != np.sign(a)) and abs(b) > 2 * abs(a)
        pairs += 1
    report = check_divergence_pattern(tr)
    ok = ok and pattern_ok and pairs >= 10 and report.passed and elapsed < 1.0
    verdict(1, "divergence reproduction", ok,
            f"iters={tr.iters}, consecutive pairs={pairs}, "
            f"{report.note}, {elapsed:.2f}s")


# ---------------------------------------------------------------------------
# 2. adaptive control on the same objective
# ---------------------------------------------------------------------------

def test_criterion_2_adaptive_control():
    t0 = time.monotonic()
    inst = make_counterexample(12.0)
    tr = run_solver(inst, AdGD2(), RunConfig(max_iter=10000, grad_tol=1e-8))
    elapsed = time.monotonic() - t0
    ok = (tr.status == "converged" and tr.iters <= 10000
          and abs(tr.x_final[0]) <= 1e-6 and elapsed < 1.0)
    verdict(2, "adaptive control converges", ok,
            f"iters={tr.iters}, |x|={abs(tr.x_final[0]):.2e}, {elapsed:.2f}s")


# ---------------------------------------------------------------------------
# 3. fixed-step embedding
# ---------------------------------------------------------------------------

def test_criterion_3_fixed_step_embedding():
    inst = make_quadratic(seed=90, n=50, condition_number=10.0)
    L = inst.composite.f.lipschitz
    tr = run_solver(inst, FixedCurvature(L), RunConfig(max_iter=1000, grad_tol=1e-300,
                                                       alpha0=1.0 / L))
    dev = float(np.max(np.abs(tr.alphas * L - 1.0)))
    ok = tr.iters == 1000 and dev <= 1e-14
    verdict(3, "fixed-step embedding exact", ok,
            f"max relative deviation={dev:.2e} over {tr.iters} iters")


# ---------------------------------------------------------------------------
# 4. certificate suite over the 20-instance pool
# ---------------------------------------------------------------------------

def test_criterion_4_certificate_suite(request):
    t0 = time.monotonic()
    pool = request.getfixturevalue("pool")
    traces = request.getfixturevalue("pool_traces")
    refs = request.getfixturevalue("pool_references")

    failures = []
    n_checks = 0
    for inst in pool:
        tr = traces[id(inst)]
        ref = refs[id(inst)]
        reports = list(check_stepsize_bounds(tr))
        if inst.convex:
            if tr.prox_run:
                reports.append(check_subgradient_monotonicity(tr))
            else:
                reports.append(check_gradient_monotonicity(tr))
            reports.append(check_energy(tr, ref))
            reports.append(check_rate(tr, ref))
        else:
            # nonconvex factorization: only the unconditional facts apply
            reports.append(check_subgradient_monotonicity(tr))
        for rep in reports:
            n_checks += 1
            if not rep.passed:
                failures.append(f"{inst.label}: {rep.to_line()}")
    elapsed = time.monotonic() - t0
    ok = not failures and elapsed < 300.0
    verdict(4, "certificate suite (20 instances)", ok,
            f"{n_checks} checks, {elapsed:.1f}s" +
            ("; " + "; ".join(failures[:3]) if failures else ""))


# ---------------------------------------------------------------------------
# 5. stepsize floor and cumulative sum
# ---------------------------------------------------------------------------

def test_criterion_5_stepsize_floor_and_sum(request):
    pool = request.getfixturevalue("pool")
    traces = request.getfixturevalue("pool_traces")
    failures = []
    for inst in pool:
        tr = traces[id(inst)]
        reports = {r.name: r for r in check_stepsize_sum(tr)}
        for name in ("stepsize_floor", "stepsize_sum"):
            rep = reports[name]
            if not rep.passed:
                failures.append(f"{inst.label}: {rep.to_line()}")
    verdict(5, "stepsize floor and sum bounds", not failures,
            "; ".join(failures[:3]) if failures else "20 instances clean")


# ---------------------------------------------------------------------------
# 6. projection oracles
# ---------------------------------------------------------------------------

def test_criterion_6_projection_oracles():
    rng = np.random.default_rng(600)
    worst_nuc = worst_l1 = 0.0
    for _ in range(200):
        Z = 3.0 * rng.normal(size=(4, 4))
        r = float(rng.uniform(0.5, 6.0))
        worst_nuc = max(worst_nuc, float(np.linalg.norm(
            project_nuclear_ball(Z, r) - nuclear_project_scan(Z, r))))
    for _ in range(200):
        v = 3.0 * rng.normal(size=10)
        r = float(rng.uniform(0.5, 8.0))
        worst_l1 = max(worst_l1, float(np.linalg.norm(
            project_l1_ball(v, r) - l1_project_scan(v, r))))

    # idempotence and nonexpansiveness across both operators
    props_ok = True
    for _ in range(100):
        Z = 4.0 * rng.normal(size=(4, 4))
        W = 4.0 * rng.normal(size=(4, 4))
        PZ, PW = project_nuclear_ball(Z, 2.0), project_nuclear_ball(W, 2.0)
        props_ok &= np.linalg.norm(project_nuclear_ball(PZ, 2.0) - PZ) <= 1e-10
        props_ok &= np.linalg.norm(PZ - PW) <= np.linalg.norm(Z - W) * (1 + 1e-12)
        v = 4.0 * rng.normal(size=10)
        w = 4.0 * rng.normal(size=10)
        pv, pw = project_l1_ball(v, 2.0), project_l1_ball(w, 2.0)
        props_ok &= np.linalg.norm(project_l1_ball(pv, 2.0) - pv) <= 1e-10
        props_ok &= np.linalg.norm(pv - pw) <= np.linalg.norm(v - w) * (1 + 1e-12)

    ok = worst_nuc <= 1e-8 and worst_l1 <= 1e-8 and props_ok
    verdict(6, "projection oracles", ok,
            f"worst nuclear dev={worst_nuc:.1e}, worst l1 dev={worst_l1:.1e}")


# ---------------------------------------------------------------------------
# 7. experiment reproduction at desk scale
# ---------------------------------------------------------------------------

def test_criterion_7_experiment_reproduction(request):
    t0 = time.monotonic()
    pool = request.getfixturevalue("pool")
    refs = request.getfixturevalue("pool_references")
    by_kind = {inst.kind: inst for inst in pool}
    kinds = ("mle", "lrmc", "curve", "nmf", "dual_entropy")
    thresholds = {}
    for kind in kinds:
        ref = refs[id(by_kind[kind])]
        if kind == "nmf":
            thresholds[kind] = ref.F_star + 1e-4
        else:
            thresholds[kind] = ref.F_star + 1e-6 * (1.0 + abs(ref.F_star))
    # one pool task per (kind, rule) cell: the adaptive run, then the Armijo pairs
    cells = [(kind, rule) for kind in kinds
             for rule in [AdGD2(), *(Armijo(s, r) for s, r in DEFAULT_ARMIJO_PAIRS)]]

    def ops(i):
        kind, rule = cells[i]
        max_iter, tol = REPRO_BUDGET[kind]
        cfg = RunConfig(max_iter=max_iter, grad_tol=tol, record_trace=False)
        return ops_to_accuracy(run_solver(by_kind[kind], rule, cfg), kind, thresholds[kind])

    # the mle and dual_entropy cells are the longest: they start first
    order = sorted(range(len(cells)), key=lambda i: cells[i][0] not in ("mle", "dual_entropy"))
    ops_by_cell = list(process_map(ops, len(cells), order))

    lines = []
    ok = True
    per_kind = len(cells) // len(kinds)
    for j, kind in enumerate(kinds):
        ops_adaptive, *ops_armijo = ops_by_cell[j * per_kind:(j + 1) * per_kind]
        med = float(np.median(ops_armijo))
        kind_ok = math.isfinite(ops_adaptive) and ops_adaptive <= med
        ok = ok and kind_ok
        lines.append(f"{kind}: adaptive={ops_adaptive:g} vs median(ls)={med:g}"
                     f"{'' if kind_ok else '  <-- FAIL'}")
    elapsed = time.monotonic() - t0
    ok = ok and elapsed < 600.0
    verdict(7, "experiment reproduction (desk scale)", ok,
            f"{elapsed:.1f}s | " + " | ".join(lines))


# ---------------------------------------------------------------------------
# 8. determinism of stored artifacts
# ---------------------------------------------------------------------------

CFG_TEXT = """
[experiment]
name = determinism
seed = 11
scale = desk
out = {out}
plot = no
max_iter = 150
grad_tol = 1e-8
reference = none

[run.a]
problem = dual_entropy
rule = adproxgd

[run.b]
problem = dual_entropy
rule = armijo
s = 1.2
r = 0.5

[run.c]
problem = curve
rule = adproxgd
"""


def test_criterion_8_determinism(tmp_path):
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    for out in (out1, out2):
        run_experiment(parse_config(CFG_TEXT.format(out=out)))
    names = sorted(p.name for p in out1.glob("*.csv"))
    same = all((out1 / n).read_bytes() == (out2 / n).read_bytes() for n in names)
    verdict(8, "byte-identical CSVs on rerun", same and len(names) >= 4,
            f"{len(names)} files compared")


# ---------------------------------------------------------------------------
# 9. no added computational cost
# ---------------------------------------------------------------------------

def _event_counts(comp, *events) -> np.ndarray:
    """The counter row that ``events`` add on ``comp``."""
    counters = Counters()
    for event in events:
        apply_event(counters, comp.g.cost, event)
    return np.array(counters.snapshot())


def test_criterion_9_no_added_computational_cost(request):
    """Row 0 holds grad f(x^0) and the alpha0 probes, the last of which is step
    0; row 1 adds one prox and its cost and no gradient, since the last probe
    took grad f(x^1); each later row adds exactly one gradient and, with a prox
    part, one prox and its cost; no row adds an f value or a reuse.  AdGD2 runs
    over the 20-instance pool and AdGD1 over its 15 smooth instances."""
    pool = request.getfixturevalue("pool")
    traces = request.getfixturevalue("pool_traces")
    runs = [(inst, traces[id(inst)]) for inst in pool]
    runs += [(inst, run_solver(inst, AdGD1(), RunConfig(max_iter=300, record_trace=False)))
             for inst in pool if not inst.composite.has_prox_part]
    failures, n_probes = [], 0
    for inst, trace in runs:
        comp = inst.composite
        probes = []
        _alpha0_search(comp, inst.x0, comp.f.gradient(inst.x0), probes.append)
        n_probes += probes.count("gradient")
        prox = _event_counts(comp, *(["prox"] if comp.has_prox_part else []))
        step = prox + _event_counts(comp, "gradient")
        rows = trace.counter_rows
        want = np.cumsum([_event_counts(comp, "gradient", *probes), prox,
                          *[step] * (len(rows) - 2)], axis=0)
        if len(rows) < 3 or not np.array_equal(rows, want):
            failures.append(f"{inst.label} under {trace.rule_name}")
    ok = len(runs) == 35 and not failures
    verdict(9, "no added computational cost", ok,
            f"{len(runs)} runs, {n_probes} probe gradients in all, the last of each at x^1"
            + (f"; {len(failures)} off it: " + "; ".join(failures[:3]) if failures else ""))
