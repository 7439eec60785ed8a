"""Self-test of the benchmark's correctness checks.

    python3 bench/selftest.py

Makes real outputs with short runs of the program on seed 1, confirms that
every check passes them, then perturbs each output in one way at a time and
confirms that the check rejects it with the expected complaint.  Prints one
line per case and exits 1 if any check accepts a perturbed output or rejects
a true one.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import csv  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import numpy as np  # noqa: E402
from adgd.experiments import read_trace_csv  # noqa: E402
from adgd.problems import make_problem  # noqa: E402
from adgd.solvers import AdGD2, RunConfig, run_solver  # noqa: E402

import checks  # noqa: E402
from oracles import make_oracle  # noqa: E402
from workloads import REFERENCE_BUDGET, REFERENCE_TOL, _quiet  # noqa: E402
import adgd.cli  # noqa: E402

SEED = 1
OUT = ROOT / ".bench_out" / "selftest"
FAILURES = []


def expect(case: str, problems, want: str = None):
    """``want`` None: the check must pass; else a complaint containing ``want``."""
    if want is None:
        ok = not problems
    else:
        ok = any(want in p for p in problems)
    print(f"{'ok  ' if ok else 'BAD '} {case}: {problems[:2] if problems else 'pass'}")
    if not ok:
        FAILURES.append(case)


def infeasible(kind: str, x: np.ndarray) -> np.ndarray:
    y = x.copy()
    if kind == "mle":
        n = int(round(np.sqrt(y.size)))
        y += (2.0 * 10.0 * np.eye(n)).ravel()          # eigenvalues above u
    elif kind == "lrmc":
        n = int(round(np.sqrt(y.size)))
        y += (10.0 * np.eye(n)).ravel()                 # nuclear norm far past r
    elif kind == "curve":
        y[0] += 1.0                                     # off the affine set
    else:
        y[0] = -1.0                                     # a negative coordinate
    return y


def value_checks():
    for kind, budget in REFERENCE_BUDGET.items():
        o = make_oracle(kind, SEED)
        inst = make_problem(kind, SEED, "desk")
        t = run_solver(inst, AdGD2(), RunConfig(max_iter=budget,
                                                grad_tol=REFERENCE_TOL.get(kind, 1e-12),
                                                record_trace=False, record_rows=False))
        F, x, st = t.F_final, t.x_final, t.status
        rel = checks.REFERENCE_REL
        expect(f"{kind} rebuilt data", checks.check_rebuild(o, inst))
        expect(f"{kind} true output ({st})",
               checks.check_value(o, st, F, x, converged_rel=rel, capped_progress=True))
        y = infeasible(kind, x)
        expect(f"{kind} infeasible point",
               checks.check_value(o, st, o.F(y), y, converged_rel=rel), "infeasible")
        expect(f"{kind} F off the independent F(x)",
               checks.check_value(o, st, F + 1e-6 * (1 + abs(F)), x, converged_rel=rel),
               "independent F(x)")
        low = o.F_lower - 1e-6 * (1 + abs(o.F_star))
        expect(f"{kind} F below the certified bound", checks.check_value(o, st, low), "below")
        F0 = o.F(o.x0)
        expect(f"{kind} F above F(x0)", checks.check_value(o, st, F0 + 1.0), "above F(x0)")
        expect(f"{kind} status diverged", checks.check_value(o, "diverged", F, x), "status")
        if o.convex:
            far = o.F_star + 1e-4 * (1 + abs(o.F_star))
            expect(f"{kind} converged far from F*",
                   checks.check_value(o, "converged", far), "from F*")
            half = o.F_star + 0.5 * (F0 - o.F_star)
            expect(f"{kind} capped without progress",
                   checks.check_value(o, "max_iter", half, capped_progress=True), "initial gap")
        other = make_problem(kind, SEED + 1, "desk")
        expect(f"{kind} data of another seed", checks.check_rebuild(o, other), "differs")


def cli_checks():
    if OUT.exists():
        shutil.rmtree(OUT)
    OUT.mkdir(parents=True)
    cfg = OUT / "selftest.cfg"
    cfg.write_text(
        f"[experiment]\nseed = {SEED}\nscale = desk\nout = {OUT / 'run'}\nplot = no\n"
        "max_iter = 40\nreference = none\n"
        "[run.a]\nproblem = mle\nrule = adproxgd\n"
        "[run.b]\nproblem = lrmc\nrule = armijo\ns = 1.2\nr = 0.5\n"
        "[run.c]\nproblem = nmf\nrule = adproxgd\n"
        "[run.d]\nproblem = dual_entropy\nrule = armijo\ns = 1.5\nr = 0.8\n",
        encoding="utf-8")
    code, text = _quiet(adgd.cli.main, ["run", "--config", str(cfg), "--check"])
    lines = text.splitlines()
    run = OUT / "run"
    with open(run / "summary.csv", newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    tags = [f"{r['problem']}/{r['rule']}" for r in rows]
    for row in rows:
        kind, rule = row["problem"], row["rule"]
        rk = "armijo" if rule.startswith("armijo") else rule
        cols = read_trace_csv(run / f"{kind}__{rule}.csv")
        case = f"{kind}/{rule}"
        expect(f"{case} true summary row", checks.check_summary_row(kind, rk, row, cols))
        expect(f"{case} true final F",
               checks.check_value(make_oracle(kind, SEED), row["status"], float(row["final_F"])))
        extra = checks.PROX_EXTRA.get(kind)
        if extra:
            bad = dict(row, **{extra: str(int(row[extra]) + 1)})
            expect(f"{case} {extra} off the cost model",
                   checks.check_summary_row(kind, rk, bad, cols), extra)
        stray = "svd_count" if kind != "lrmc" else "eig_count"
        bad = dict(row, **{stray: "1"})
        expect(f"{case} {stray} where the cost model has none",
               checks.check_summary_row(kind, rk, bad, cols), stray)
        bad = dict(row, projection_count=str(int(row["projection_count"]) - 1))
        expect(f"{case} projection_count off prox_evals",
               checks.check_summary_row(kind, rk, bad, cols), "projection_count")
        bad = dict(row, essential_total=repr(float(row["essential_total"]) + 1.0))
        expect(f"{case} essential_total off the cost model",
               checks.check_summary_row(kind, rk, bad, cols), "essential_total")
        bad = dict(row, final_F=repr(float(row["final_F"]) * (1 + 1e-12) + 1e-12))
        expect(f"{case} final_F off the CSV", checks.check_summary_row(kind, rk, bad, cols),
               "last CSV F")
        short = {k: v[:-1] for k, v in cols.items()}
        expect(f"{case} CSV missing a row", checks.check_summary_row(kind, rk, row, short),
               "rows")
        if rk != "armijo":
            bad = dict(row, func_evals="3")
            expect(f"{case} objective calls without a linesearch",
                   checks.check_summary_row(kind, rk, bad, cols), "evaluated f")
        data = (run / f"{kind}__{rule}.csv").read_bytes()
        flipped = data[:-3] + bytes([data[-3] ^ 1]) + data[-2:]
        expect(f"{case} CSV bytes same as first", checks.check_same_as_first({"c": data},
                                                                             {"c": data}))
        expect(f"{case} CSV bytes altered", checks.check_same_as_first({"c": data},
                                                                        {"c": flipped}),
               "differs")
    report = checks.check_report(tags, code, lines)
    expect("run --check true report", [p for v in report.values() for p in v])
    expect("run --check exit code 4",
           [p for v in checks.check_report(tags, 4, lines).values() for p in v], "exit code")
    cert = next(i for i, ln in enumerate(lines) if "PASS" in ln and "trace_reproduction" not in ln)
    failed = lines[:cert] + [lines[cert].replace("PASS", "FAIL")] + lines[cert + 1:]
    expect("run --check certificate FAIL line",
           [p for v in checks.check_report(tags, code, failed).values() for p in v], "report:")
    dropped = [ln for ln in lines if not ln.startswith(tags[0] + " ")
               or "trace_reproduction" not in ln]
    expect("run --check missing trace_reproduction PASS",
           [p for v in checks.check_report(tags, code, dropped).values() for p in v],
           "trace_reproduction")


def main() -> int:
    value_checks()
    cli_checks()
    shutil.rmtree(OUT, ignore_errors=True)
    print(f"{len(FAILURES)} check(s) misbehaved" if FAILURES else "every check rejects its "
          "perturbed outputs and accepts the true ones")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
