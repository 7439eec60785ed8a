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


@dataclass
class Counters:
    grad_evals: int = 0
    func_evals: int = 0
    prox_evals: int = 0
    svd_count: int = 0
    eig_count: int = 0
    projection_count: int = 0
    reused_evals: int = 0

    def snapshot(self) -> tuple:
        # the instance dict holds exactly the fields, in declaration order
        return tuple(self.__dict__.values())


COUNTER_FIELDS = tuple(f.name for f in fields(Counters))

# the counter each oracle event adds one to; a prox also adds its ProxFriendly.cost
EVENT_COUNTERS = {"value": "func_evals", "gradient": "grad_evals",
                  "prox": "prox_evals", "reuse": "reused_evals"}


def apply_event(counters: Counters, cost: dict, event: str) -> None:
    """Count one oracle event ("value" | "gradient" | "prox" | "reuse"); ``cost``
    is the prox part's ``ProxFriendly.cost``."""
    if event not in EVENT_COUNTERS:
        raise ValueError(f"unknown event kind {event!r}")
    counts = counters.__dict__   # exactly the counter fields: a lookup rejects any other
    try:
        counts[EVENT_COUNTERS[event]] += 1
        if event == "prox":
            for name, step in cost.items():
                counts[name] += step
    except KeyError as exc:
        raise ValueError(f"unknown counter field {exc.args[0]!r}") from None


def _weights(**by_counter) -> np.ndarray:
    return np.array([float(by_counter.get(name, 0)) for name in COUNTER_FIELDS])


# (metric name, one weight per counter) per problem kind: a linesearch's
# accepted evaluation is discounted by its reuse
_ESSENTIAL = {
    "mle": ("projections", _weights(projection_count=1)),
    "curve": ("projections", _weights(projection_count=1)),
    "lrmc": ("svds", _weights(svd_count=1)),
    "nmf": ("matmul_units", _weights(grad_evals=3, func_evals=1, reused_evals=-1)),
    "dual_entropy": ("matvec_units", _weights(grad_evals=2, func_evals=1, reused_evals=-1)),
}
_ORACLE_CALLS = ("oracle_calls", _weights(grad_evals=1, func_evals=1, reused_evals=-1))


def essential_metric_name(kind: str) -> str:
    return _ESSENTIAL.get(kind, _ORACLE_CALLS)[0]


def essential_units(kind: str, counters) -> float:
    """Problem-specific essential-operation total of a Counters or any object
    with the counter attributes."""
    row = [getattr(counters, name) for name in COUNTER_FIELDS]
    return float(essential_units_rows(kind, row)[0])


def essential_units_rows(kind: str, counter_rows) -> np.ndarray:
    """Essential-operation totals of (n, 7) counter snapshots, one per row.
    Counts below 2**53 make every total exact."""
    rows = np.asarray(counter_rows, dtype=np.float64).reshape(-1, len(COUNTER_FIELDS))
    return rows @ _ESSENTIAL.get(kind, _ORACLE_CALLS)[1]
