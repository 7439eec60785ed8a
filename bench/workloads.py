"""The three workloads: set-up, one timed round, and the checks of its outputs.

Each workload is a closed loop of one caller: a round starts when the
previous one has returned.  A round always attempts the same operations, so
the number attempted is a whole multiple of the round size.
"""

from __future__ import annotations

import contextlib
import csv
import io
import shutil
import traceback
from pathlib import Path
from typing import Callable, Dict, List

import adgd.cli
import adgd.solvers
from adgd.accounting import essential_units
from adgd.experiments import DEFAULT_ARMIJO_PAIRS, read_trace_csv
from adgd.problems import make_nmf, make_problem

import checks
from oracles import make_oracle

KINDS = ("mle", "lrmc", "curve", "dual_entropy", "nmf")

# reference_solve: the settings reference.make_reference uses (AdGD2,
# grad_tol 1e-12, 1e-10 for the ten nmf restarts, rows and trajectory off)
# under a fixed iteration budget.  Iterations to 1e-12 on dual_entropy range
# from 3,737 to 886,741 over seeds 1-49, so uncapped solves would make a
# round's work depend on the seed.  The budgets sit below the fewest
# iterations seen to converge (mle 5,016, dual_entropy 3,737, an nmf restart
# 757), so those kinds do the same work on every seed; lrmc and curve
# converge within 56 and 940.
REFERENCE_BUDGET = {"mle": 2000, "lrmc": 2000, "curve": 5000, "dual_entropy": 3000,
                    "nmf": 500}
REFERENCE_TOL = {"nmf": 1e-10}
NMF_RESTARTS = 10

# desk_matrix: the default matrix (adaptive plus the nine Armijo pairs on the
# five kinds) without the nine lrmc Armijo cells.  On lrmc every pair reaches
# the rounding floor within the budget on some seeds; from there its work per
# seed varies 2-18x, and Armijo(1.1, 0.9) raises LinesearchStalled on seeds 4
# and 5, which aborts the whole `adgd run`.  At 150 iterations every other
# cell but adaptive lrmc (converged in 19-56) ran to the budget on seeds 1-30.
DESK_MATRIX_MAX_ITER = 150
# run_check: at 300 iterations mle, curve (309-685 to converge on seeds 1-12)
# and nmf run to the budget; lrmc converges in 23-35.  dual_entropy is left
# out: its reference, filled in set-up, runs to 1e-12 uncapped and took
# 198 s on seed 6 (2-core box, one BLAS thread).
RUN_CHECK_MAX_ITER = 300
RUN_CHECK_KINDS = ("mle", "lrmc", "curve", "nmf")


def _quiet(fn: Callable, *args):
    """Call ``fn`` with its standard output captured; return (result, text)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        result = fn(*args)
    return result, buf.getvalue()


class ReferenceSolve:
    """Reference-grade solves called straight through ``run_solver``."""

    name = "reference_solve"

    def __init__(self, seed: int, out: Path):
        self.seed = seed
        self.solves = []
        self.results: List[list] = []

    def setup(self):
        s = self.seed
        solves = [(k, 0, make_problem(k, s, "desk")) for k in KINDS if k != "nmf"]
        solves += [("nmf", i, make_nmf(s, 60, 10, start_index=i)) for i in range(NMF_RESTARTS)]
        self.solves = [(kind, i, inst, adgd.solvers.RunConfig(
            max_iter=REFERENCE_BUDGET[kind], grad_tol=REFERENCE_TOL.get(kind, 1e-12),
            record_trace=False, record_rows=False)) for kind, i, inst in solves]

    def round(self, tracer=None):
        rule = adgd.solvers.AdGD2()
        out = []
        for kind, i, inst, cfg in self.solves:
            if tracer is not None:
                inst = tracer.instance(inst)
            try:
                out.append(adgd.solvers.run_solver(inst, rule, cfg))
            except Exception as exc:  # a solve that raises is a failed operation
                out.append(exc)
        self.results.append(out)

    def collect(self):
        pass

    def per_round(self):
        done = [(kind, t) for (kind, _, _, _), t in zip(self.solves, self.results[0])
                if not isinstance(t, Exception)]
        return (sum(t.iters for _, t in done),
                sum(essential_units(kind, t.counters) for kind, t in done))

    def check(self):
        oracles = {k: make_oracle(k, self.seed) for k in KINDS if k != "nmf"}
        oracles.update({("nmf", i): make_oracle("nmf", self.seed, i)
                        for i in range(NMF_RESTARTS)})
        rebuilt = {}
        for kind, i, inst, _ in self.solves:
            key = kind if kind != "nmf" else ("nmf", i)
            rebuilt[key] = checks.check_rebuild(oracles[key], inst)
        first = self.results[0]
        problems = []
        for r, traces in enumerate(self.results):
            for (kind, i, _, _), t, t0 in zip(self.solves, traces, first):
                key = kind if kind != "nmf" else ("nmf", i)
                if isinstance(t, Exception):
                    p = [f"raised {t!r}"]
                else:
                    p = checks.check_value(oracles[key], t.status, t.F_final, t.x_final,
                                           converged_rel=checks.REFERENCE_REL,
                                           capped_progress=True)
                    p += checks.check_same_as_first({"result": _outcome(t0)},
                                                    {"result": _outcome(t)})
                problems.append((f"round {r} {kind}#{i}", p + rebuilt[key]))
        return problems


def _outcome(t):
    return repr(t) if isinstance(t, Exception) else (t.status, t.iters, t.F_final)


class CliWorkload:
    """``adgd run`` through ``adgd.cli.main`` on a config the set-up writes."""

    extra_args: tuple = ()

    def __init__(self, seed: int, out: Path):
        self.seed = seed
        self.out = out
        self.config = out / f"{self.name}.cfg"
        self.run_dir = out / "run"
        self.rounds: List[dict] = []
        self.exit_codes: List[int] = []
        self.reports: List[List[str]] = []

    def config_text(self) -> str:
        raise NotImplementedError

    def prepare(self):
        if self.run_dir.exists():
            shutil.rmtree(self.run_dir)
        self.config.write_text(self.config_text(), encoding="utf-8")

    def setup(self):
        self.prepare()

    def round(self, tracer=None):
        main = adgd.cli.main if tracer is None else tracer.wrap("cli", adgd.cli.main)
        try:
            code, text = _quiet(main, ["run", "--config", str(self.config), *self.extra_args])
        except Exception:  # a round that raises fails every cell
            code, text = -1, traceback.format_exc()
        self.exit_codes.append(code)
        self.reports.append(text.splitlines())

    def collect(self):
        """Snapshot the round's outputs, then remove them, so every round
        writes into the same directory state and none reads a stale file."""
        summary = self.run_dir / "summary.csv"
        rows = []
        if summary.exists():
            with open(summary, newline="", encoding="utf-8") as fh:
                rows = list(csv.DictReader(fh))
        cells = sorted(p for p in self.run_dir.glob("*.csv") if p != summary)
        svgs = sorted(self.run_dir.glob("*.svg"))
        self.rounds.append({
            "rows": rows,
            "csv": {p.name: p.read_bytes() for p in cells},
            "cols": {p.name: read_trace_csv(p) for p in cells},
            "svg": [p.name for p in svgs if p.stat().st_size > 0],
        })
        for p in cells + svgs + [summary, self.run_dir / "meta.json",
                                 self.run_dir / "check_report.txt"]:
            p.unlink(missing_ok=True)

    def per_round(self):
        rows = self.rounds[0]["rows"]
        return (sum(int(r["iterations"]) for r in rows),
                sum(float(r["essential_total"]) for r in rows))

    def cells(self) -> List[tuple]:
        raise NotImplementedError

    def check(self):
        kinds = sorted({k for k, _ in self.cells()})
        oracles = {k: make_oracle(k, self.seed) for k in kinds}
        rebuilt = {k: checks.check_rebuild(oracles[k], make_problem(k, self.seed, "desk"))
                   for k in kinds}
        first = self.rounds[0]["csv"]
        problems = []
        for r, snap in enumerate(self.rounds):
            by_cell = {(row["problem"], row["rule"]): row for row in snap["rows"]}
            report = self.round_report(r)
            for kind, rule in self.cells():
                p = []
                row = by_cell.get((kind, rule))
                name = f"{kind}__{rule}.csv"
                if row is None or name not in snap["cols"]:
                    p.append("cell missing from summary.csv or its CSV missing")
                else:
                    p += checks.check_value(oracles[kind], row["status"], float(row["final_F"]))
                    p += checks.check_summary_row(kind, "armijo" if rule.startswith("armijo")
                                                  else rule, row, snap["cols"][name])
                    p += checks.check_same_as_first({name: first.get(name)},
                                                    {name: snap["csv"][name]})
                p += report.get(f"{kind}/{rule}", []) + rebuilt[kind]
                problems.append((f"round {r} {kind}/{rule}", p))
        return problems

    def round_report(self, r: int) -> Dict[str, List[str]]:
        """Per cell, the problems in round ``r``'s exit code and report."""
        code = self.exit_codes[r]
        return {f"{k}/{rule}": [f"exit code {code}"] for k, rule in self.cells() if code != 0}


class DeskMatrix(CliWorkload):
    """``adgd run`` on the default matrix without the lrmc Armijo cells."""

    name = "desk_matrix"

    def config_text(self):
        runs = "".join(
            f"\n[run.{kind}__{rule}]\nproblem = {kind}\nrule = adproxgd\n" if rule == "adproxgd"
            else f"\n[run.{kind}__{rule}]\nproblem = {kind}\nrule = armijo\ns = {s:g}\nr = {r:g}\n"
            for kind, rule, s, r in self._matrix())
        return (f"[experiment]\nname = desk_matrix\nseed = {self.seed}\n"
                f"scale = desk\nout = {self.run_dir}\nplot = yes\n"
                f"max_iter = {DESK_MATRIX_MAX_ITER}\nreference = none\n" + runs)

    @staticmethod
    def _matrix():
        out = []
        for kind in ("mle", "lrmc", "curve", "nmf", "dual_entropy"):
            out.append((kind, "adproxgd", None, None))
            if kind != "lrmc":
                out += [(kind, f"armijo_s{s:g}_r{r:g}", s, r) for s, r in DEFAULT_ARMIJO_PAIRS]
        return out

    def cells(self):
        return [(kind, rule) for kind, rule, _, _ in self._matrix()]

    def round_report(self, r):
        out = super().round_report(r)
        svg = self.rounds[r]["svg"]
        for kind, rule in self.cells():
            if f"{kind}_gap_vs_ops.svg" not in svg:
                out.setdefault(f"{kind}/{rule}", []).append(f"no {kind} plot")
        return out


class RunCheck(CliWorkload):
    """``adgd run --check`` on the adproxgd cells, references cached in set-up."""

    name = "run_check"
    extra_args = ["--check"]

    def config_text(self):
        runs = "".join(f"\n[run.{k}]\nproblem = {k}\nrule = adproxgd\n" for k in RUN_CHECK_KINDS)
        return (f"[experiment]\nname = run_check\nseed = {self.seed}\nscale = desk\n"
                f"out = {self.run_dir}\nplot = no\nmax_iter = {RUN_CHECK_MAX_ITER}\n"
                f"reference = auto\n" + runs)

    def setup(self):
        self.prepare()
        cache = str(self.run_dir / "references")
        for kind in RUN_CHECK_KINDS:
            code, _ = _quiet(adgd.cli.main, ["reference", "--problem", kind, "--seed",
                                             str(self.seed), "--cache", cache])
            if code != 0:
                raise RuntimeError(f"adgd reference --problem {kind} exited {code}")

    def cells(self):
        return [(k, "adproxgd") for k in RUN_CHECK_KINDS]

    def round_report(self, r):
        tags = [f"{k}/{rule}" for k, rule in self.cells()]
        return checks.check_report(tags, self.exit_codes[r], self.reports[r])


WORKLOADS = {w.name: w for w in (ReferenceSolve, DeskMatrix, RunCheck)}
