"""Reference solutions, cached on disk.

An instance whose generator knows its minimizer carries it as
``ProblemInstance.solution`` (quadratic, least squares, quartic, the
counterexample, the spectral-box MLE and the planted NMF factors); its
reference is that closed form, with F* = F(x*) and the unit-step
gradient-mapping residual at x* as tolerance.  The others (logistic, lrmc,
curve, dual_entropy) get a long adaptive proximal-gradient run with a tight
gradient-mapping tolerance.  Cache files are keyed by the problem
descriptor, the solve settings (grad_tol, max_iter) and the cache format,
which are also stored in the file and checked on load: a rerun with the same
seed, parameters and settings is a pure cache hit, and a reference is never
reused under other settings.
"""

from __future__ import annotations

import hashlib
import json
import os
import zipfile
from pathlib import Path
from typing import Optional

import numpy as np

from .core import ReferenceSolution, evaluate_composite
from .problems import ProblemInstance, instance_descriptor
from .solvers import AdGD2, RunConfig, run_solver

REFERENCE_GRAD_TOL = 1e-12
REFERENCE_MAX_ITER = 10 ** 6


CACHE_FORMAT = "adgd-reference-v4"


def _cache_settings(inst: ProblemInstance, grad_tol: float, max_iter: int) -> str:
    return json.dumps({"descriptor": instance_descriptor(inst), "format": CACHE_FORMAT,
                       "grad_tol": float(grad_tol), "max_iter": int(max_iter)},
                      sort_keys=True)


def reference_path(cache_dir, inst: ProblemInstance, grad_tol: float = REFERENCE_GRAD_TOL,
                   max_iter: int = REFERENCE_MAX_ITER) -> Path:
    settings = _cache_settings(inst, grad_tol, max_iter)
    key = hashlib.sha256(settings.encode()).hexdigest()[:16]
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


def cached_reference(inst: ProblemInstance, cache_dir,
                     grad_tol: float = REFERENCE_GRAD_TOL,
                     max_iter: int = REFERENCE_MAX_ITER) -> Optional[ReferenceSolution]:
    """The reference cached for ``inst`` under these settings, or None when
    there is no file, the file cannot be read, or it was built under other
    settings."""
    path = reference_path(cache_dir, inst, grad_tol, max_iter)
    try:
        with np.load(path) as data:
            if ("settings" not in data.files
                    or str(data["settings"]) != _cache_settings(inst, grad_tol, max_iter)):
                return None
            return ReferenceSolution(
                x_star=np.array(data["x_star"]),
                F_star=float(data["F_star"]),
                tolerance=float(data["tolerance"]),
                provenance=str(data["provenance"]),
            )
    except (OSError, EOFError, ValueError, zipfile.BadZipFile):
        return None   # missing, empty, truncated or corrupt: a miss, rebuilt and replaced


def _closed_form_reference(inst: ProblemInstance) -> ReferenceSolution:
    p, x = inst.composite, inst.solution
    residual = np.linalg.norm(x - p.g.prox(1.0, x - p.f.gradient(x)))
    return ReferenceSolution(x_star=x, F_star=evaluate_composite(p, x),
                             tolerance=float(residual),
                             provenance=f"closed-form minimizer of the {inst.kind} generator")


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


def make_reference(inst: ProblemInstance, cache_dir=None,
                   grad_tol: float = REFERENCE_GRAD_TOL,
                   max_iter: int = REFERENCE_MAX_ITER,
                   force: bool = False) -> ReferenceSolution:
    """Reference for ``inst``, from cache when available.

    The instance's closed-form solution when it carries one, a long adaptive
    run otherwise.  Pass ``cache_dir=None`` to skip caching entirely.
    """
    if cache_dir is not None and not force:
        ref = cached_reference(inst, cache_dir, grad_tol, max_iter)
        if ref is not None:
            return ref
    if inst.solution is not None:
        ref = _closed_form_reference(inst)
    else:
        ref = _solve_reference(inst, grad_tol, max_iter)
    if cache_dir is not None:
        _save(reference_path(cache_dir, inst, grad_tol, max_iter), ref,
              _cache_settings(inst, grad_tol, max_iter))
    return ref
