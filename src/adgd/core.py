"""Problem abstractions shared by every solver and diagnostic.

A point is a flat float64 array.  Matrix-valued problems flatten their
variables row-major and record the shapes in their own metadata, so a single
solver codepath serves everything.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Callable, Iterator, Optional

import numpy as np


class DimensionMismatch(ValueError):
    """Input point does not match the problem dimension."""


class NumericalError(RuntimeError):
    """A non-finite value appeared where a finite one was required."""


@dataclass(frozen=True)
class SmoothFunction:
    """Differentiable piece: value and exact gradient oracles.

    ``lipschitz`` holds a known global smoothness constant when one exists
    (quadratics, logistic); ``None`` for merely locally smooth objectives.
    """

    dimension: int
    value: Callable[[np.ndarray], float]
    gradient: Callable[[np.ndarray], np.ndarray]
    name: str = "f"
    lipschitz: Optional[float] = None

    def check_dim(self, x: np.ndarray) -> None:
        if x.shape != (self.dimension,):
            raise DimensionMismatch(
                f"{self.name}: expected dimension {self.dimension}, got {x.shape}"
            )


@dataclass(frozen=True)
class ProxFriendly:
    """Convex lsc piece with a cheap proximal map.

    ``value`` may return ``+inf`` (indicator functions); ``prox`` must return
    a point where ``value`` is finite.  ``cost`` lists the counter increments
    one prox call incurs beyond the call itself (e.g. one eigendecomposition).
    """

    value: Callable[[np.ndarray], float]
    prox: Callable[[float, np.ndarray], np.ndarray]
    name: str = "g"
    cost: dict = field(default_factory=dict)
    is_zero: bool = False


def zero_prox_friendly() -> ProxFriendly:
    """g = 0: the prox is the identity and the value vanishes everywhere."""
    return ProxFriendly(
        value=lambda x: 0.0,
        prox=lambda alpha, z: z,
        name="zero",
        is_zero=True,
    )


@dataclass(frozen=True)
class CompositeProblem:
    """Objective ``F = f + g`` with an essential-operation cost model.

    ``cost_model`` maps each oracle call kind ("value", "gradient", "prox")
    to the counter increments it triggers; see :mod:`adgd.accounting`.
    """

    f: SmoothFunction
    g: ProxFriendly
    label: str = ""
    cost_model: dict = field(default_factory=dict)

    @property
    def dimension(self) -> int:
        return self.f.dimension

    @property
    def has_prox_part(self) -> bool:
        return not self.g.is_zero


def composite(f: SmoothFunction, g: Optional[ProxFriendly] = None,
              label: str = "") -> CompositeProblem:
    """Assemble a composite problem, defaulting g to the zero function."""
    if g is None:
        g = zero_prox_friendly()
    cost_model = {
        "value": {"func_evals": 1},
        "gradient": {"grad_evals": 1},
        "prox": {"prox_evals": 1, **g.cost},
    }
    return CompositeProblem(f=f, g=g, label=label or f.name, cost_model=cost_model)


@dataclass(frozen=True)
class ReferenceSolution:
    """High-accuracy anchor point (x_ref, F_ref) used by certificates.

    ``tolerance`` is a gradient-mapping norm at ``x_star``: for a closed-form
    minimizer the unit-step residual ||x - prox(x - grad f(x))||, for a solve
    the final residual of the run.  It is not a guaranteed distance to the
    true optimum.
    """

    x_star: np.ndarray
    F_star: float
    tolerance: float
    provenance: str = ""


def evaluate_composite(p: CompositeProblem, x) -> float:
    """F(x) = f(x) + g(x); +inf whenever g(x) = +inf."""
    x = np.asarray(x, dtype=np.float64).ravel()
    p.f.check_dim(x)
    gx = p.g.value(x)
    if gx == np.inf:
        return np.inf
    return float(p.f.value(x)) + float(gx)


# ---------------------------------------------------------------------------
# Independent tasks over the usable CPUs
# ---------------------------------------------------------------------------

_TASK = None   # set only in a pool's worker: the function it runs

# Each worker is a fresh fork that faults in its own heap, and a map is never
# shorter than its longest task.  Below this many tasks per worker a few
# uneven cells (one mle cell is 70% of four `adgd run` cells; `run --check`
# makes two tasks of a cell) gain ~10% from the pool for twice the CPUs, and
# their wall time spreads wider.
MIN_TASKS_PER_WORKER = 4


def worker_count(n_tasks: int) -> int:
    """Worker processes for ``n_tasks`` independent tasks: one per usable CPU,
    at most one per ``MIN_TASKS_PER_WORKER`` tasks, at least one."""
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity mask on this platform
        cpus = os.cpu_count() or 1
    return max(1, min(cpus, n_tasks // MIN_TASKS_PER_WORKER))


def _enter_worker(fn) -> None:
    global _TASK
    _TASK = fn


def _call_task(i: int):
    return _TASK(i)


def process_map(fn: Callable[[int], object], n_tasks: int, order=None) -> Iterator:
    """Yield ``fn(0), ..., fn(n_tasks - 1)`` in order, computed on a fork pool.

    The workers are forked, so they see ``fn`` and all it reads without
    pickling: only the task index goes out and only the result, which must
    pickle, comes back.  ``order`` (a permutation of the indices) is the order
    in which the pool starts the tasks, longest first say; the results still
    come in index order.  With one worker, without fork, or inside a worker,
    this is the builtin ``map``.  The first task in index order that raises
    raises here, and the tasks not yet started are cancelled.
    """
    workers = worker_count(n_tasks)
    context = None
    if workers > 1 and _TASK is None:
        import multiprocessing
        if "fork" in multiprocessing.get_all_start_methods():
            context = multiprocessing.get_context("fork")
    if context is None:
        yield from map(fn, range(n_tasks))
        return
    from concurrent.futures import ProcessPoolExecutor
    pool = ProcessPoolExecutor(workers, mp_context=context,
                               initializer=_enter_worker, initargs=(fn,))
    try:
        started = {i: pool.submit(_call_task, i) for i in order or range(n_tasks)}
        yield from (started[i].result() for i in range(n_tasks))
    finally:
        pool.shutdown(wait=True, cancel_futures=True)
