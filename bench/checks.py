"""Correctness checks on the program's outputs.

Every check compares an output with a computation made apart from the
program (``oracles.py``) or with the program's own output from another
round.  Each returns a list of problems; an empty list is a pass.
``selftest.py`` shows that each check rejects a perturbed output.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional

import numpy as np

from oracles import Oracle

VALUE_REL = 1e-9        # reported F vs the independent F(x); lower-bound slack
REFERENCE_REL = 1e-9    # converged reference-grade solve vs F*
CELL_REL = 1e-6         # converged experiment cell vs F*
PROGRESS = 1e-2         # budget-capped convex solve: share of the initial gap left

COUNTERS = ("grad_evals", "func_evals", "prox_evals", "svd_count", "eig_count",
            "projection_count")
# cost model: every prox call is one projection, plus one eigendecomposition
# on mle and one SVD on lrmc; the essential units are projections (mle,
# curve), SVDs (lrmc) or matrix products, a gradient costing GRAD_UNITS and
# an objective evaluation one (nmf, dual_entropy)
PROX_EXTRA = {"mle": "eig_count", "lrmc": "svd_count"}
GRAD_UNITS = {"nmf": 3.0, "dual_entropy": 2.0}


def check_value(oracle: Oracle, status: str, F: float, x: Optional[np.ndarray] = None,
                converged_rel: float = CELL_REL, capped_progress: bool = False) -> List[str]:
    """One solver output against the independent oracle of its instance.

    ``x`` is the final point when the output includes it; CSV-only outputs
    are checked through their reported objective alone.
    """
    out = []
    if status not in ("converged", "max_iter"):
        return [f"status {status}"]
    if not math.isfinite(F):
        return [f"non-finite F {F!r}"]
    if x is not None:
        bad = oracle.infeasibility(x)
        if bad > 0.0:
            out.append(f"final point infeasible by {bad:.3e}")
        F_ind = oracle.F(x)
        if not abs(F - F_ind) <= VALUE_REL * (1.0 + abs(F_ind)):
            out.append(f"reported F {F!r} but independent F(x) = {F_ind!r}")
    if F < oracle.F_lower - oracle.tol(VALUE_REL):
        out.append(f"F {F!r} below the certified lower bound {oracle.F_lower!r}")
    F0 = oracle.F(oracle.x0)
    if F > F0 + VALUE_REL * (1.0 + abs(F0)):
        out.append(f"F {F!r} above F(x0) = {F0!r}")
    if oracle.convex and status == "converged":
        if not abs(F - oracle.F_star) <= oracle.tol(converged_rel):
            out.append(f"converged F {F!r} is {F - oracle.F_star:+.3e} from F* {oracle.F_star!r}")
        if x is not None and oracle.stationarity is not None:
            stat = oracle.stationarity(x)
            if not stat <= oracle.tol(converged_rel):
                out.append(f"converged point has stationarity measure {stat:.3e}")
    if oracle.convex and status == "max_iter" and capped_progress:
        if not F - oracle.F_star <= PROGRESS * (F0 - oracle.F_star):
            out.append(f"capped solve left {(F - oracle.F_star) / (F0 - oracle.F_star):.3e} "
                       "of the initial gap")
    return out


def check_summary_row(kind: str, rule: str, row: Dict[str, str],
                      csv_cols: Dict[str, np.ndarray]) -> List[str]:
    """A summary.csv row against its kind's cost model and its own CSV."""
    out = []
    c = {name: int(row[name]) for name in COUNTERS + ("reused_evals",)}
    iters = int(row["iterations"])
    for name in ("projection_count", "eig_count", "svd_count"):
        want = c["prox_evals"] if name in ("projection_count", PROX_EXTRA.get(kind)) else 0
        if c[name] != want:
            out.append(f"{name}={c[name]} but the cost model gives {want}")
    if c["grad_evals"] < iters or c["prox_evals"] < iters:
        out.append(f"fewer gradient or prox calls than the {iters} iterations")
    if rule == "armijo":
        if c["func_evals"] < iters or c["reused_evals"] > c["func_evals"]:
            out.append("linesearch objective counts do not cover the iterations")
    elif c["func_evals"] or c["reused_evals"]:
        out.append(f"non-linesearch rule evaluated f {c['func_evals']} times")
    if kind in GRAD_UNITS:
        want = GRAD_UNITS[kind] * c["grad_evals"] + c["func_evals"] - c["reused_evals"]
    else:
        want = c["svd_count" if kind == "lrmc" else "projection_count"]
    if float(row["essential_total"]) != want:
        out.append(f"essential_total {row['essential_total']} but the cost model gives {want:g}")
    n_rows = len(csv_cols["iter"])
    if n_rows != iters:
        out.append(f"CSV has {n_rows} rows for {iters} iterations")
    elif iters:
        if float(csv_cols["F"][-1]) != float(row["final_F"]):
            out.append(f"last CSV F {csv_cols['F'][-1]!r} differs from final_F {row['final_F']}")
        for name in COUNTERS:
            if int(csv_cols[name][-1]) != c[name]:
                out.append(f"last CSV {name} differs from the summary")
    return out


def check_same_as_first(first: Dict[str, object], again: Dict[str, object]) -> List[str]:
    """A later round's outputs (CSV bytes, results) against the first round's."""
    out = []
    for name in sorted(set(first) | set(again)):
        if first.get(name) != again.get(name):
            out.append(f"{name} differs from the first round")
    return out


def check_rebuild(oracle: Oracle, inst) -> List[str]:
    """The oracle's rebuilt data against the program's instance, at x0."""
    c = inst.composite
    x0 = np.asarray(inst.x0, dtype=np.float64)
    out = []
    if not np.allclose(x0, oracle.x0, rtol=1e-12, atol=1e-12):
        out.append("rebuilt x0 differs from the program's")
    F_prog = float(c.f.value(x0)) + float(c.g.value(x0))
    F_ind = oracle.F(oracle.x0)
    if not abs(F_prog - F_ind) <= VALUE_REL * (1.0 + abs(F_ind)):
        out.append(f"rebuilt F(x0) {F_ind!r} differs from the program's {F_prog!r}")
    g_prog = c.f.gradient(x0)
    g_ind = oracle.grad(oracle.x0)
    if not np.allclose(g_prog, g_ind, rtol=VALUE_REL, atol=VALUE_REL * (1.0 + np.abs(g_ind).max())):
        out.append("rebuilt gradient at x0 differs from the program's")
    return out


def check_report(cells: List[str], exit_code: int, lines: List[str]) -> Dict[str, List[str]]:
    """``adgd run --check`` output: per cell, its problems."""
    out: Dict[str, List[str]] = {tag: [] for tag in cells}
    for tag in cells:
        passes = [ln for ln in lines if ln.startswith(tag + " ") and "trace_reproduction" in ln
                  and ln.split()[2] == "PASS"]
        if len(passes) != 1:
            out[tag].append(f"{len(passes)} trace_reproduction PASS lines")
        fails = [ln for ln in lines if ln.startswith(tag + " ") and " FAIL" in ln]
        out[tag].extend(f"report: {ln.strip()}" for ln in fails)
    stray = [ln for ln in lines if " FAIL" in ln and not any(ln.startswith(t + " ") for t in cells)]
    if exit_code != 0 or stray:
        for tag in cells:
            if not out[tag]:
                out[tag].append(f"exit code {exit_code}; unattributed FAIL lines {len(stray)}")
    return out
