"""Independent cells on a fork pool: the same artifacts and errors as a serial
run.

Each test patches ``adgd.core.worker_count``, so the pool path runs with two
workers whatever the machine, and the serial path with one.  ``adgd run
--check`` is one pool pass: each cell's rerun and certificates are a task of
their own beside the cells.
"""

import dataclasses
import json
import multiprocessing
import os
import time
from pathlib import Path

import pytest

import adgd.core
import adgd.diagnostics
import adgd.experiments
import adgd.solvers
from adgd.cli import main as cli_main
from adgd.core import NumericalError, process_map

from oracles import first_difference

pytestmark = pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(),
                                reason="the pool needs the fork start method")

POOL_CELLS = """
[experiment]
name = pool
seed = 2
scale = desk
plot = yes
max_iter = 80
reference = none

[run.mle]
problem = mle
rule = adproxgd

[run.lrmc]
problem = lrmc
rule = adproxgd

[run.nmf]
problem = nmf
rule = armijo
s = 1.2
r = 0.5

[run.curve]
problem = curve
rule = adproxgd

[run.mle_armijo]
problem = mle
rule = armijo
s = 1.5
r = 0.8
"""


def use_workers(monkeypatch, workers):
    monkeypatch.setattr(adgd.core, "worker_count", lambda n_tasks: min(workers, n_tasks))


def record_pids(monkeypatch, module, pid_file: Path, fail=None):
    """Wrap ``module.run_solver`` so every call appends its process id to
    ``pid_file``; ``fail(inst, rule)`` may raise in place of the solve."""
    real = adgd.solvers.run_solver

    def solve(inst, rule, cfg):
        with open(pid_file, "a") as fh:
            fh.write(f"{os.getpid()}\n")
        if fail is not None:
            fail(inst, rule)
        return real(inst, rule, cfg)

    monkeypatch.setattr(module, "run_solver", solve)


def pids(pid_file: Path) -> set:
    return {int(line) for line in pid_file.read_text().split()}


def files(out: Path) -> dict:
    return {p.name: p.read_bytes() for p in sorted(out.iterdir()) if p.is_file()}


def test_worker_count_leaves_few_tasks_serial(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(8)), raising=False)
    per = adgd.core.MIN_TASKS_PER_WORKER
    assert [adgd.core.worker_count(n) for n in (0, 1, per, 2 * per - 1)] == [1, 1, 1, 1]
    assert adgd.core.worker_count(2 * per) == 2
    assert adgd.core.worker_count(41) == min(8, 41 // per)
    assert adgd.core.worker_count(1000) == 8


def test_process_map_keeps_order_and_runs_in_workers(monkeypatch):
    use_workers(monkeypatch, 4)   # more workers than the two cores CI machines have
    parent = os.getpid()
    got = list(process_map(lambda i: (i * i, os.getpid()), 40))
    assert [square for square, _ in got] == [i * i for i in range(40)]
    assert parent not in {pid for _, pid in got}
    use_workers(monkeypatch, 2)
    # a map inside a worker is the builtin map, not a pool of its own
    inner = list(process_map(lambda i: list(process_map(lambda j: (j, os.getpid()), 2)), 2))
    for pairs in inner:
        assert [j for j, _ in pairs] == [0, 1]
        assert len({pid for _, pid in pairs}) == 1


def test_run_and_check_artifacts_identical_to_serial(tmp_path, monkeypatch, capsys):
    cfg = tmp_path / "pool.cfg"
    cfg.write_text(POOL_CELLS)
    outputs, reports = {}, {}
    for workers in (1, 2):
        use_workers(monkeypatch, workers)
        pid_file = tmp_path / f"pids{workers}"
        record_pids(monkeypatch, adgd.experiments, pid_file)
        out = tmp_path / f"workers{workers}"
        assert cli_main(["run", "--config", str(cfg), "--out", str(out), "--check"]) == 0
        reports[workers] = capsys.readouterr().out.replace(str(out), "OUT")
        outputs[workers] = files(out)
        ran_in = pids(pid_file)
        assert (ran_in == {os.getpid()}) if workers == 1 else (os.getpid() not in ran_in)
    names = set(outputs[1])
    assert {"summary.csv", "meta.json", "check_report.txt"} <= names
    assert sum(name.endswith(".svg") for name in names) == 4   # one per kind
    assert sum(name.endswith(".csv") for name in names) == 6   # five cells, summary
    assert outputs[1] == outputs[2]
    assert reports[1] == reports[2]


def lrmc_fails_after_nmf(nmf_failed: Path, workers: int):
    """A ``fail`` for ``record_pids``: in the pool the lrmc cell fails only
    after the nmf cell behind it has failed."""
    def fail(inst, rule):
        if inst.kind == "lrmc":
            deadline = time.monotonic() + 30
            while workers > 1 and not nmf_failed.exists() and time.monotonic() < deadline:
                time.sleep(0.01)
            raise NumericalError("lrmc failed")
        if inst.kind == "nmf":
            nmf_failed.touch()
            raise NumericalError("nmf failed")
    return fail


@pytest.mark.parametrize("workers", [1, 2])
def test_worker_failure_exits_3_and_earlier_cell_wins(tmp_path, monkeypatch, capsys, workers):
    """In the pool the lrmc cell fails only after the nmf cell behind it has
    failed; the lrmc failure is reported, and only the cell before it is written."""
    cfg = tmp_path / "pool.cfg"
    cfg.write_text(POOL_CELLS)
    nmf_failed = tmp_path / "nmf_failed"
    fail = lrmc_fails_after_nmf(nmf_failed, workers)
    use_workers(monkeypatch, workers)
    pid_file = tmp_path / "pids"
    record_pids(monkeypatch, adgd.experiments, pid_file, fail)
    out = tmp_path / "out"
    assert cli_main(["run", "--config", str(cfg), "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert "lrmc failed" in err and "nmf failed" not in err
    assert sorted(files(out)) == ["mle__adproxgd.csv"]
    if workers > 1:
        assert nmf_failed.exists()
        assert os.getpid() not in pids(pid_file)



def test_run_shuts_its_workers_down_before_the_plots(tmp_path, monkeypatch, capsys):
    cfg = tmp_path / "pool.cfg"
    cfg.write_text(POOL_CELLS)
    use_workers(monkeypatch, 2)
    alive = []
    real_plot = adgd.experiments.write_plots

    def plot(*args):
        alive.append(multiprocessing.active_children())
        return real_plot(*args)

    monkeypatch.setattr(adgd.experiments, "write_plots", plot)
    assert cli_main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0
    assert alive == [[]]


def test_process_map_start_order_keeps_results_in_index_order(monkeypatch):
    use_workers(monkeypatch, 2)

    def task(i):
        started = time.monotonic()
        time.sleep(0.05)
        return i, started

    got = list(process_map(task, 8, order=[7, 6, 5, 4, 3, 2, 1, 0]))
    assert [i for i, _ in got] == list(range(8))
    started = dict(got)
    assert started[7] < started[0] and started[6] < started[1]


def test_process_map_first_raising_task_in_index_order_wins(tmp_path, monkeypatch):
    """Task 1 starts first and raises first; task 0 raises after it, and wins."""
    use_workers(monkeypatch, 2)
    late_failed = tmp_path / "late_failed"

    def task(i):
        if i == 1:
            late_failed.touch()
            raise ValueError("late task")
        deadline = time.monotonic() + 30
        while not late_failed.exists() and time.monotonic() < deadline:
            time.sleep(0.01)
        raise ValueError("early task")

    with pytest.raises(ValueError, match="early task"):
        list(process_map(task, 2, order=[1, 0]))
    assert late_failed.exists()


# -- `run --check` as one pool pass ---------------------------------------------

def run_cli(capsys, argv, out: Path):
    """Exit code and standard output of ``adgd argv``, with ``out`` as OUT."""
    code = cli_main(argv)
    return code, capsys.readouterr().out.replace(str(out), "OUT")


def run_check_and_apart(tmp_path, monkeypatch, capsys, workers, cells):
    """``adgd run --check`` into ``fused``, and ``adgd run`` then ``adgd check``
    into ``apart``: both must exit 0 with the same output and files.  Returns
    the fused run's printed output and both directories."""
    cfg = tmp_path / "pool.cfg"
    cfg.write_text(cells)
    use_workers(monkeypatch, workers)
    fused, apart = tmp_path / "fused", tmp_path / "apart"
    code, printed = run_cli(capsys, ["run", "--config", str(cfg), "--out", str(fused),
                                     "--check"], fused)
    run_code, run_printed = run_cli(capsys, ["run", "--config", str(cfg), "--out", str(apart)],
                                    apart)
    check_code, check_printed = run_cli(capsys, ["check", "--run", str(apart)], apart)
    assert code == run_code == check_code == 0
    assert first_difference(printed, run_printed + check_printed) is None
    assert first_difference(files(fused), files(apart)) is None
    assert "check_report.txt" in files(fused)
    return printed, fused, apart


@pytest.mark.parametrize("workers", [1, 2])
def test_run_check_equals_run_then_check(tmp_path, monkeypatch, capsys, workers):
    run_check_and_apart(tmp_path, monkeypatch, capsys, workers, POOL_CELLS)


@pytest.mark.parametrize("workers", [1, 2])
def test_run_check_with_references_equals_run_then_check(tmp_path, monkeypatch, capsys,
                                                         workers):
    """With ``reference = auto`` both build the same references, and each
    adaptive cell of a convex kind passes the energy and the rate certificate."""
    printed, fused, apart = run_check_and_apart(
        tmp_path, monkeypatch, capsys, workers,
        POOL_CELLS.replace("reference = none", "reference = auto"))
    refs = files(fused / "references")
    assert sorted(name.split("_")[1] for name in refs) == ["curve", "lrmc", "mle", "nmf"]
    assert first_difference(refs, files(apart / "references")) is None
    lines = printed.splitlines()
    for kind in ("mle", "lrmc", "curve"):
        for name in ("energy_decrease_prox", "rate_bound"):
            line = f"{kind + '/adproxgd':36s} {name:28s} PASS  worst=-"
            assert sum(x.startswith(line) and "[not applicable" not in x for x in lines) == 1


@pytest.mark.parametrize("workers", [1, 2])
def test_run_check_cell_failure_leaves_what_run_leaves(tmp_path, monkeypatch, capsys, workers):
    """The lrmc run fails (and so does its rerun) while the nmf cell behind it
    fails first: exit 3, the lrmc message and the CSV before it, as ``run``."""
    cfg = tmp_path / "pool.cfg"
    cfg.write_text(POOL_CELLS)
    use_workers(monkeypatch, workers)
    outcomes = {}
    for extra in ([], ["--check"]):
        nmf_failed = tmp_path / f"nmf_failed{len(extra)}"
        record_pids(monkeypatch, adgd.experiments, tmp_path / "pids",
                    lrmc_fails_after_nmf(nmf_failed, workers))
        out = tmp_path / f"out{len(extra)}"
        code = cli_main(["run", "--config", str(cfg), "--out", str(out), *extra])
        captured = capsys.readouterr()
        outcomes[len(extra)] = code, captured.out, captured.err, files(out)
    assert outcomes[0] == outcomes[1]
    code, printed, err, written = outcomes[1]
    assert code == 3 and printed == "" and "lrmc failed" in err and "nmf failed" not in err
    assert sorted(written) == ["mle__adproxgd.csv"]


def fail_curve_certificates(monkeypatch):
    """Every certificate of the curve cell reports FAIL."""
    real = adgd.experiments.run_certificates

    def certificates(inst, trace, reference=None):
        reports = real(inst, trace, reference)
        if inst.kind == "curve":
            reports = [dataclasses.replace(rep, passed=False) for rep in reports]
        return reports

    monkeypatch.setattr(adgd.experiments, "run_certificates", certificates)


def test_failing_certificate_exits_4_with_one_report(tmp_path, monkeypatch, capsys):
    cfg = tmp_path / "pool.cfg"
    cfg.write_text(POOL_CELLS)
    fail_curve_certificates(monkeypatch)
    outcomes = {}
    for workers in (1, 2):
        use_workers(monkeypatch, workers)
        out = tmp_path / f"workers{workers}"
        outcomes[workers] = (*run_cli(capsys, ["run", "--config", str(cfg), "--out", str(out),
                                               "--check"], out), files(out))
    assert outcomes[1] == outcomes[2]
    code, printed, written = outcomes[1]
    assert code == 4
    report = written["check_report.txt"].decode()
    assert printed.endswith(report)
    failing = [line for line in report.splitlines() if " FAIL " in line]
    assert failing and all(line.startswith("curve/") for line in failing)
    assert f"{'curve/adproxgd':36s} trace_reproduction          PASS" in report


@pytest.mark.parametrize("workers", [1, 2])
def test_run_check_compares_against_the_csv_on_disk(tmp_path, monkeypatch, capsys, workers):
    """A cell CSV that differs on disk from the run's trace fails reproduction."""
    cfg = tmp_path / "pool.cfg"
    cfg.write_text(POOL_CELLS)
    use_workers(monkeypatch, workers)
    real = adgd.experiments.write_trace_csv

    def write(path, trace):
        real(path, trace)
        if Path(path).name.startswith("lrmc"):
            with open(path, "a", encoding="utf-8") as fh:
                fh.write("\n")

    monkeypatch.setattr(adgd.experiments, "write_trace_csv", write)
    out = tmp_path / "out"
    code, printed = run_cli(capsys, ["run", "--config", str(cfg), "--out", str(out),
                                     "--check"], out)
    assert code == 4
    failing = [line for line in printed.splitlines() if " FAIL " in line]
    assert failing == [f"{'lrmc/adproxgd':36s} trace_reproduction          "
                       "FAIL  stored CSV differs"]


def test_rerun_rebuilds_cells_from_the_meta_json_text(tmp_path, monkeypatch, capsys):
    """The check's instances come from ``instance_from_descriptor`` on the
    cells of the parsed ``meta.json``, and the reruns use them, not the run's."""
    cfg = tmp_path / "pool.cfg"
    cfg.write_text(POOL_CELLS)
    use_workers(monkeypatch, 1)
    rebuilt = {}
    real_rebuild = adgd.experiments.instance_from_descriptor

    def rebuild(descriptor):
        inst = real_rebuild(descriptor)
        rebuilt[id(inst)] = descriptor
        return inst

    solved = []
    real_solve = adgd.experiments.run_solver

    def solve(inst, rule, run_cfg):
        solved.append((id(inst), run_cfg.record_trace))
        return real_solve(inst, rule, run_cfg)

    monkeypatch.setattr(adgd.experiments, "instance_from_descriptor", rebuild)
    monkeypatch.setattr(adgd.experiments, "run_solver", solve)
    out = tmp_path / "out"
    assert cli_main(["run", "--config", str(cfg), "--out", str(out), "--check"]) == 0
    capsys.readouterr()
    cells = json.loads((out / "meta.json").read_text(encoding="utf-8"))["cells"]
    distinct = []
    for cell in cells:
        if cell["problem"] not in distinct:
            distinct.append(cell["problem"])
    assert list(rebuilt.values()) == distinct
    reruns = [inst_id for inst_id, traced in solved if traced]
    runs = [inst_id for inst_id, traced in solved if not traced]
    assert len(reruns) == len(runs) == len(cells)
    assert set(reruns) <= set(rebuilt) and not set(runs) & set(rebuilt)
