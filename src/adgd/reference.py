"""High-accuracy reference solutions, cached on disk.

References are self-hosted: a long adaptive proximal-gradient run with a
tight gradient-mapping tolerance.  For the nonconvex factorization problem
the reference is the best value found over a ten-restart sweep and is labeled
as such.  Cache files are keyed by the problem descriptor, the solve settings
(grad_tol, max_iter) and the cache format, which are also stored in the file
and checked on load: a rerun with the same seed, parameters and settings is a
pure cache hit, and a reference is never reused under other settings.
"""

from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path
from typing import Optional

import numpy as np

from .core import ReferenceSolution, process_map
from .problems import ProblemInstance, instance_descriptor, make_nmf
from .solvers import AdGD2, RunConfig, run_solver

REFERENCE_GRAD_TOL = 1e-12
REFERENCE_MAX_ITER = 10 ** 6
NMF_RESTARTS = 10


CACHE_FORMAT = "adgd-reference-v2"


def _cache_settings(inst: ProblemInstance, grad_tol: float, max_iter: int) -> str:
    return json.dumps({"descriptor": instance_descriptor(inst), "format": CACHE_FORMAT,
                       "grad_tol": float(grad_tol), "max_iter": int(max_iter)},
                      sort_keys=True)


def reference_key(inst: ProblemInstance, grad_tol: float = REFERENCE_GRAD_TOL,
                  max_iter: int = REFERENCE_MAX_ITER) -> str:
    settings = _cache_settings(inst, grad_tol, max_iter)
    return hashlib.sha256(settings.encode()).hexdigest()[:16]


def reference_path(cache_dir, inst: ProblemInstance, grad_tol: float = REFERENCE_GRAD_TOL,
                   max_iter: int = REFERENCE_MAX_ITER) -> Path:
    key = reference_key(inst, grad_tol, max_iter)
    return Path(cache_dir) / f"ref_{inst.kind}_{key}.npz"


def _save(path: Path, ref: ReferenceSolution, settings: str) -> None:
    """Write through a temp file of this writer's own, then rename it into place,
    so writers of one key at the same time never touch each other's file."""
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f"{path.stem}.{os.getpid()}.{os.urandom(4).hex()}.tmp")
    fh = open(tmp, "xb")  # exclusive create: the name is this writer's alone
    try:
        with fh:
            np.savez(
                fh,
                x_star=ref.x_star,
                F_star=np.float64(ref.F_star),
                tolerance=np.float64(ref.tolerance),
                provenance=np.str_(ref.provenance),
                settings=np.str_(settings),
            )
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _load(path: Path, settings: str) -> Optional[ReferenceSolution]:
    """The cached reference, or None when it was built under other settings."""
    with np.load(path) as data:
        if "settings" not in data.files or str(data["settings"]) != settings:
            return None
        return ReferenceSolution(
            x_star=np.array(data["x_star"]),
            F_star=float(data["F_star"]),
            tolerance=float(data["tolerance"]),
            provenance=str(data["provenance"]),
        )


def _solve_reference(inst: ProblemInstance, grad_tol: float, max_iter: int) -> ReferenceSolution:
    cfg = RunConfig(max_iter=max_iter, grad_tol=grad_tol,
                    record_trace=False, record_rows=False)
    tr = run_solver(inst, AdGD2(), cfg)
    prov = (f"adaptive proximal gradient, grad_tol={grad_tol:g}, "
            f"iters={tr.iters}, status={tr.status}")
    if tr.status != "converged":
        prov += " (low-confidence: budget exhausted)"
    return ReferenceSolution(x_star=tr.x_final, F_star=tr.F_final,
                             tolerance=max(tr.final_residual, grad_tol),
                             provenance=prov)


def _solve_nmf_reference(inst: ProblemInstance, grad_tol: float, max_iter: int) -> ReferenceSolution:
    meta = inst.metadata
    variants = [make_nmf(inst.generator_seed, meta["n"], meta["r"], start_index=restart)
                for restart in range(NMF_RESTARTS)]
    cfg = RunConfig(max_iter=max_iter, grad_tol=grad_tol,
                    record_trace=False, record_rows=False)

    def solve(restart):
        return run_solver(variants[restart], AdGD2(), cfg)

    best = None
    for tr in process_map(solve, NMF_RESTARTS):
        if best is None or tr.F_final < best.F_final:
            best = tr
    return ReferenceSolution(
        x_star=best.x_final,
        F_star=best.F_final,
        tolerance=max(best.final_residual, grad_tol),
        provenance=f"best-found over {NMF_RESTARTS} restarts (nonconvex)",
    )


def make_reference(inst: ProblemInstance, cache_dir=None,
                   grad_tol: float = REFERENCE_GRAD_TOL,
                   max_iter: int = REFERENCE_MAX_ITER,
                   force: bool = False) -> ReferenceSolution:
    """Reference for ``inst``, from cache when available.

    Convex problems get a single long run; the factorization problem gets a
    restart sweep with a best-found label.  Pass ``cache_dir=None`` to skip
    caching entirely.
    """
    path = None
    settings = _cache_settings(inst, grad_tol, max_iter)
    if cache_dir is not None:
        path = reference_path(cache_dir, inst, grad_tol, max_iter)
        if path.exists() and not force:
            ref = _load(path, settings)
            if ref is not None:
                return ref
    if inst.kind == "nmf":
        ref = _solve_nmf_reference(inst, max(grad_tol, 1e-10), min(max_iter, 20000))
    else:
        ref = _solve_reference(inst, grad_tol, max_iter)
    if path is not None:
        _save(path, ref, settings)
    return ref
