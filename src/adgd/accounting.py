"""Essential-operation accounting.

Comparisons between methods count only operations that cannot be reused: the
dominant unit differs per problem (projections for the spectral box and the
affine set, SVDs for the nuclear ball, matrix products elsewhere), and the
objective evaluation accepted by a linesearch is discounted once the next
gradient reuses its intermediate product.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

COUNTER_FIELDS = (
    "grad_evals",
    "func_evals",
    "prox_evals",
    "svd_count",
    "eig_count",
    "projection_count",
    "reused_evals",
)


@dataclass
class Counters:
    grad_evals: int = 0
    func_evals: int = 0
    prox_evals: int = 0
    svd_count: int = 0
    eig_count: int = 0
    projection_count: int = 0
    reused_evals: int = 0

    def bump(self, increments: dict) -> None:
        # the instance dict holds exactly the counter fields, so the lookup
        # itself rejects an unknown name
        counts = self.__dict__
        try:
            for name, step in increments.items():
                counts[name] += step
        except KeyError as exc:
            raise ValueError(f"unknown counter field {exc.args[0]!r}") from None

    def snapshot(self) -> tuple:
        return tuple(getattr(self, f.name) for f in fields(self))


def apply_event(counters: Counters, cost_model: dict, event: str) -> None:
    """Apply one oracle event ("value" | "gradient" | "prox" | "reuse")."""
    if event == "reuse":
        counters.bump({"reused_evals": 1})
        return
    if event not in cost_model:
        raise ValueError(f"unknown event kind {event!r}")
    counters.bump(cost_model[event])


# (metric name, weights) per problem kind; weights apply to
# (grad_evals, func_evals - reused_evals, prox-related count)
_ESSENTIAL = {
    "mle": ("projections", None),
    "curve": ("projections", None),
    "lrmc": ("svds", None),
    "nmf": ("matmul_units", 3.0),
    "dual_entropy": ("matvec_units", 2.0),
}


def essential_metric_name(kind: str) -> str:
    return _ESSENTIAL.get(kind, ("oracle_calls", None))[0]


def essential_units(kind: str, counters) -> float:
    """Problem-specific essential-operation total.

    Accepts a Counters or any object with the counter attributes.
    """
    row = [getattr(counters, name) for name in COUNTER_FIELDS]
    return float(essential_units_rows(kind, row)[0])


def essential_units_rows(kind: str, counter_rows) -> np.ndarray:
    """Essential-operation totals of (n, 7) counter snapshots, one per row."""
    rows = np.asarray(counter_rows, dtype=np.float64).reshape(-1, len(COUNTER_FIELDS))
    grad, func, proj = rows[:, 0], rows[:, 1], rows[:, 5]
    svd, reused = rows[:, 3], rows[:, 6]
    name, grad_weight = _ESSENTIAL.get(kind, ("oracle_calls", None))
    if name == "projections":
        return proj
    if name == "svds":
        return svd
    net = func - reused
    if grad_weight is not None:
        return grad_weight * grad + net
    return grad + net
