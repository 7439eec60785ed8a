"""Reference solutions, cached on disk.

An instance whose generator knows its minimizer carries it as
``ProblemInstance.solution`` (quadratic, least squares, quartic, the
counterexample, the spectral-box MLE and the planted NMF factors); its
reference is that closed form, with F* = F(x*) and the unit-step
gradient-mapping residual at x* as tolerance.  The others (logistic, lrmc,
curve, dual_entropy) get a long adaptive proximal-gradient run with a tight
gradient-mapping tolerance.  Cache files are keyed by the problem
descriptor, the solve settings (``REFERENCE_GRAD_TOL`` and
``REFERENCE_MAX_ITER``, read at call time) and the cache format, which are
also stored in the file and checked on load: a rerun with the same
seed, parameters and settings is a pure cache hit, and a reference is never
reused under other settings.
"""

from __future__ import annotations

import hashlib
import json
import os
import zipfile
from pathlib import Path

import numpy as np

from .core import ReferenceSolution, evaluate_composite
from .problems import ProblemInstance, instance_descriptor
from .solvers import AdGD2, RunConfig, run_solver

REFERENCE_GRAD_TOL = 1e-12
REFERENCE_MAX_ITER = 10 ** 6


CACHE_FORMAT = "adgd-reference-v4"


def _cache_settings(inst: ProblemInstance) -> str:
    return json.dumps({"descriptor": instance_descriptor(inst), "format": CACHE_FORMAT,
                       "grad_tol": REFERENCE_GRAD_TOL, "max_iter": REFERENCE_MAX_ITER},
                      sort_keys=True)


def reference_path(cache_dir, inst: ProblemInstance) -> Path:
    key = hashlib.sha256(_cache_settings(inst).encode()).hexdigest()[:16]
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


def _closed_form_reference(inst: ProblemInstance) -> ReferenceSolution:
    p, x = inst.composite, inst.solution
    residual = np.linalg.norm(x - p.g.prox(1.0, x - p.f.gradient(x)))
    return ReferenceSolution(x_star=x, F_star=evaluate_composite(p, x),
                             tolerance=float(residual),
                             provenance=f"closed-form minimizer of the {inst.kind} generator")


def _solve_reference(inst: ProblemInstance) -> ReferenceSolution:
    cfg = RunConfig(max_iter=REFERENCE_MAX_ITER, grad_tol=REFERENCE_GRAD_TOL,
                    record_trace=False, record_rows=False)
    tr = run_solver(inst, AdGD2(), cfg)
    prov = (f"adaptive proximal gradient, grad_tol={REFERENCE_GRAD_TOL:g}, "
            f"iters={tr.iters}, status={tr.status}")
    if tr.status != "converged":
        prov += " (low-confidence: budget exhausted)"
    return ReferenceSolution(x_star=tr.x_final, F_star=tr.F_final,
                             tolerance=max(tr.final_residual, REFERENCE_GRAD_TOL),
                             provenance=prov)


def make_reference(inst: ProblemInstance, cache_dir=None) -> ReferenceSolution:
    """Reference for ``inst``: the one cached under ``cache_dir`` for the current
    settings, else built and cached there.

    The instance's closed-form solution when it carries one, a long adaptive
    run otherwise.  A file that is missing, cannot be read or was built under
    other settings is rebuilt and replaced.  Pass ``cache_dir=None`` to skip
    caching entirely.
    """
    settings = _cache_settings(inst)
    if cache_dir is not None:
        try:
            with np.load(reference_path(cache_dir, inst)) as data:
                if str(data["settings"]) == settings:
                    return ReferenceSolution(
                        x_star=np.array(data["x_star"]),
                        F_star=float(data["F_star"]),
                        tolerance=float(data["tolerance"]),
                        provenance=str(data["provenance"]),
                    )
        except (OSError, EOFError, KeyError, ValueError, zipfile.BadZipFile):
            pass   # missing, empty, truncated or corrupt: rebuilt and replaced
    if inst.solution is not None:
        ref = _closed_form_reference(inst)
    else:
        ref = _solve_reference(inst)
    if cache_dir is not None:
        _save(reference_path(cache_dir, inst), ref, settings)
    return ref
