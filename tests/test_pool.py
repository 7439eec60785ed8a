"""Independent cells on a fork pool: the same artifacts and errors as a serial
run.

Each test patches ``adgd.core.worker_count``, so the pool path runs with two
workers whatever the machine, and the serial path with one.
"""

import multiprocessing
import os
import time
from pathlib import Path

import pytest

import adgd.core
import adgd.experiments
import adgd.solvers
from adgd.cli import main as cli_main
from adgd.core import NumericalError, process_map
from adgd.solvers import LinesearchStalled

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


@pytest.mark.parametrize("workers", [1, 2])
def test_worker_failure_exits_3_and_earlier_cell_wins(tmp_path, monkeypatch, capsys, workers):
    """In the pool the lrmc cell fails only after the nmf cell behind it has
    failed; the lrmc failure is reported, and only the cell before it is written."""
    cfg = tmp_path / "pool.cfg"
    cfg.write_text(POOL_CELLS)
    nmf_failed = tmp_path / "nmf_failed"

    def fail(inst, rule):
        if inst.kind == "lrmc":
            deadline = time.monotonic() + 30
            while workers > 1 and not nmf_failed.exists() and time.monotonic() < deadline:
                time.sleep(0.01)
            raise NumericalError("lrmc failed")
        if inst.kind == "nmf":
            nmf_failed.touch()
            raise LinesearchStalled("nmf failed")

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

