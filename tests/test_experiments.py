import dataclasses
import json
import math
import multiprocessing
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from adgd.accounting import (COUNTER_FIELDS, Counters, apply_event, essential_units,
                              essential_units_rows)
from adgd.experiments import (
    CSV_HEADER,
    ConfigError,
    DEFAULT_ARMIJO_PAIRS,
    ops_to_accuracy,
    parse_config,
    plot_run_dir,
    read_trace_csv,
    rule_from_dict,
    rule_to_dict,
    run_experiment,
    trace_csv_text,
)
from adgd.cli import main as cli_main
import adgd
from adgd.core import evaluate_composite
from adgd.problems import (
    EXPERIMENT_KINDS,
    KINDS,
    make_counterexample,
    make_least_squares,
    make_min_curve,
    make_mle,
    make_nmf,
    make_problem,
    make_quadratic,
    make_quartic,
)
from adgd.diagnostics import check_feasibility
from adgd.reference import _cache_settings, _save, make_reference, reference_path
from adgd.solvers import (RULES, AdGD1, AdGD2, Armijo, BadGD, FixedStep, OldAdGD, RunConfig,
                          run_solver)

from oracles import first_difference, ladder_essential_units_rows

GOOD_CONFIG = """
# minimal experiment
[experiment]
name = unit
problem = dual_entropy
seed = 3
scale = desk
out = {out}
plot = no
max_iter = 120
grad_tol = 1e-8
alpha0 = search
reference = none

[run.fast]
problem = dual_entropy
rule = adproxgd

[run.ls]
problem = dual_entropy
rule = armijo
s = 1.5
r = 0.5
"""


# ---------------------------------------------------------------------------
# config parsing
# ---------------------------------------------------------------------------

def test_parse_good_config(tmp_path):
    cfg = parse_config(GOOD_CONFIG.format(out=tmp_path))
    assert cfg.name == "unit"
    assert cfg.problems == ["dual_entropy"]
    assert len(cfg.runs) == 2
    assert isinstance(cfg.runs[1].rule, Armijo)


def test_unknown_key_reports_line_number():
    text = "[experiment]\nname = x\nbogus_key = 1\n"
    with pytest.raises(ConfigError) as err:
        parse_config(text)
    assert "line 3" in str(err.value)


def test_malformed_line_reports_line_number():
    text = "[experiment]\nname = x\nnot a kv line\n"
    with pytest.raises(ConfigError) as err:
        parse_config(text)
    assert "line 3" in str(err.value)


def test_duplicate_key_rejected():
    text = "[experiment]\nseed = 1\nseed = 2\n"
    with pytest.raises(ConfigError) as err:
        parse_config(text)
    assert "line 3" in str(err.value)


def test_cli_duplicate_run_name_exits_2_with_its_section_line(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("[experiment]\nreference = none\n\n[run.x]\nproblem = curve\n"
                   "rule = adproxgd\n\n[run.x]\nproblem = mle\nrule = adproxgd\n")
    assert cli_main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err == "error: config error (line 8): duplicate run name 'x'\n"
    assert not (tmp_path / "out").exists()


def test_cli_config_with_a_byte_order_mark_runs_as_without(tmp_path):
    text = b"[experiment]\nproblem = curve\nmax_iter = 5\nreference = none\nplot = no\n"
    written = []
    for name, data in (("plain", text), ("marked", b"\xef\xbb\xbf" + text)):
        (tmp_path / f"{name}.ini").write_bytes(data)
        assert cli_main(["run", "--config", str(tmp_path / f"{name}.ini"),
                         "--out", str(tmp_path / name)]) == 0
        written.append({p.name: p.read_bytes() for p in (tmp_path / name).iterdir()})
    assert len(written[0]) == 12   # meta.json, summary.csv and the ten curve CSVs
    assert first_difference(*written) is None


def test_readme_config_example_parses():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    example = readme.split("### Config schema", 1)[1].split("```ini\n", 1)[1].split("```", 1)[0]
    cfg = parse_config(example)
    assert (cfg.name, cfg.problems, cfg.seed, cfg.out) == ("demo", ["mle"], 1, Path("runs/demo"))
    assert [(run.name, run.problem, run.rule) for run in cfg.runs] == \
        [("NAME", "mle", Armijo(1.2, 0.5))]


def test_run_section_requires_rule():
    text = "[experiment]\nname = x\n[run.a]\nproblem = mle\n"
    with pytest.raises(ConfigError):
        parse_config(text)


def test_default_matrix_is_adaptive_plus_nine_pairs():
    cfg = parse_config("[experiment]\nproblem = lrmc\n")
    runs = cfg.resolved_runs()
    assert len(runs) == 10
    assert isinstance(runs[0].rule, AdGD2)
    pairs = [(r.rule.s, r.rule.r) for r in runs[1:]]
    assert pairs == DEFAULT_ARMIJO_PAIRS


def test_unknown_section_rejected():
    with pytest.raises(ConfigError):
        parse_config("[experiment]\nname = x\n[mystery]\nkey = 1\n")


@pytest.mark.parametrize("text, seed", [("9007199254740993", 2 ** 53 + 1),
                                         ("18446744073709551617", 2 ** 64 + 1),
                                         ("+12", 12), ("1e3", 1000), ("7.0", 7)])
def test_config_integers_parse_exactly(text, seed):
    assert parse_config(f"[experiment]\nseed = {text}\n").seed == seed


def test_config_seed_past_2_to_the_53_runs_as_the_seed_flag(tmp_path):
    body = "max_iter = 1\nreference = none\nplot = no\n\n[run.a]\nproblem = lrmc\nrule = adproxgd\n"
    (tmp_path / "c.ini").write_text(f"[experiment]\nseed = 9007199254740993\n{body}")
    (tmp_path / "f.ini").write_text(f"[experiment]\n{body}")
    assert cli_main(["run", "--config", str(tmp_path / "c.ini"), "--out", str(tmp_path / "c")]) == 0
    assert cli_main(["run", "--config", str(tmp_path / "f.ini"), "--out", str(tmp_path / "f"),
                     "--seed", "9007199254740993"]) == 0
    meta = (tmp_path / "c" / "meta.json").read_text()
    assert json.loads(meta)["seed"] == 2 ** 53 + 1
    assert meta == (tmp_path / "f" / "meta.json").read_text()
    assert (tmp_path / "c" / "lrmc__adproxgd.csv").read_bytes() == \
        (tmp_path / "f" / "lrmc__adproxgd.csv").read_bytes()


@pytest.mark.parametrize("line", [
    "max_iter = 0", "seed = nan", "max_iter = 1e400", "grad_tol = -1", "alpha0 = -2",
    # text that float rounds to an integer, but whose decimal value is none
    "seed = 9007199254740993.5", "max_iter = 2.0000000000000001",
    "[run.a", "[experiment]", "problem = mle, banana", "problem = curve, curve",
    "reference = maybe",
    "[run.a]\nrule = adgd2",
])
def test_cli_bad_value_exits_2_with_line(tmp_path, capsys, line):
    cfg = tmp_path / "bad.cfg"
    third = "plot = no" if line.startswith("reference") else "reference = none"
    cfg.write_text(f"[experiment]\nname = bad\n{third}\n{line}\n")
    assert cli_main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "(line 4)" in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("data, line", [
    pytest.param(b"[experiment]\nname = caf\xe9\n", 2, id="mid-line"),
    pytest.param(b"[experiment]\r\nreference = none\r\n\xff = 1\r\n", 3, id="line start, CRLF"),
])
def test_cli_config_that_is_not_utf8_exits_2_with_line(tmp_path, capsys, data, line):
    cfg = tmp_path / "bad.ini"
    cfg.write_bytes(data)
    assert cli_main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert f"(line {line})" in err and "not UTF-8" in err
    assert not (tmp_path / "out").exists()


def test_invalid_rule_parameter_reports_line():
    with pytest.raises(ConfigError, match="line 3"):
        parse_config("[experiment]\nname = x\n[run.a]\nproblem = mle\n"
                     "rule = armijo\ns = 0.5\nr = 0.5\n")


@pytest.mark.parametrize("rule, missing", [
    ("fixed", ""), ("armijo", "s = 1.2\n"), ("armijo", "r = 0.5\n"),
])
def test_rule_missing_parameter_reports_section_line(rule, missing):
    with pytest.raises(ConfigError, match="line 3"):
        parse_config(f"[experiment]\nname = x\n[run.a]\nproblem = mle\nrule = {rule}\n{missing}")


@pytest.mark.parametrize("rule, key", [
    ("adgd2", "s"), ("adproxgd", "alpha"), ("fixed", "c"), ("armijo", "alpha"), ("badgd", "r"),
])
def test_rule_foreign_parameter_reports_its_line(rule, key):
    required = {"fixed": "alpha = 0.1\n", "armijo": "s = 1.2\nr = 0.5\n"}.get(rule, "")
    text = (f"[experiment]\nname = x\n[run.a]\nproblem = mle\n{key} = 2\n"
            f"rule = {rule}\n{required}")
    with pytest.raises(ConfigError, match=rf"line 5\).*'{key}'"):
        parse_config(text)


@pytest.mark.parametrize("rule", sorted(k for k, cls in RULES.items() if not cls.prox_ok))
@pytest.mark.parametrize("problem", EXPERIMENT_KINDS)
def test_rule_invalid_for_prox_problem_reports_section_line(problem, rule):
    with pytest.raises(ConfigError, match=rf"line 3\).*{rule}.*not valid"):
        parse_config(f"[experiment]\nname = x\n[run.a]\nproblem = {problem}\nrule = {rule}\n")
    # a smooth problem takes every rule
    parse_config(f"[experiment]\nname = x\n[run.a]\nproblem = quadratic\nrule = {rule}\n")


@pytest.mark.parametrize("params, key, line", [
    ("rule = fixed\nalpha = nan", "alpha", 6), ("rule = fixed\nalpha = inf", "alpha", 6),
    ("rule = badgd\nc = nan", "c", 6), ("rule = armijo\nr = 0.5\ns = inf", "s", 7),
])
def test_non_finite_rule_parameter_exits_2_with_its_line(tmp_path, capsys, params, key, line):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(f"[experiment]\nreference = none\n[run.a]\nproblem = quadratic\n{params}\n")
    with pytest.raises(ConfigError, match=rf"line {line}\): {key} must be a finite number"):
        parse_config(cfg.read_text())
    assert cli_main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("make", [
    lambda: FixedStep(math.nan), lambda: FixedStep(math.inf), lambda: BadGD(math.nan),
    lambda: BadGD(math.inf), lambda: Armijo(math.nan, 0.5), lambda: Armijo(math.inf, 0.5),
])
def test_rules_reject_non_finite_parameters(make):
    with pytest.raises(ValueError):
        make()


def test_cli_rule_invalid_for_problem_exits_2(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("[experiment]\nreference = none\n\n[run.a]\nproblem = mle\nrule = adgd1\n")
    assert cli_main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
    assert "(line 4)" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_badgd_without_c_takes_its_default():
    cfg = parse_config("[experiment]\nname = x\n[run.a]\nproblem = quadratic\nrule = badgd\n")
    assert cfg.runs[0].rule == BadGD(1.0)


def test_rule_dicts_round_trip_through_registry():
    rules = [AdGD1(), AdGD2(), OldAdGD(), FixedStep(0.25), Armijo(1.5, 0.8), BadGD(2.0)]
    assert sorted(RULES) == ["adgd1", "adgd2", "adproxgd", "armijo", "badgd", "fixed",
                             "oldadgd"]
    assert [rule_to_dict(r) for r in rules] == [
        {"kind": "adgd1"}, {"kind": "adgd2"}, {"kind": "oldadgd"},
        {"kind": "fixed", "alpha": 0.25}, {"kind": "armijo", "s": 1.5, "r": 0.8},
        {"kind": "badgd", "c": 2.0}]
    assert [rule_from_dict(rule_to_dict(r)) for r in rules] == rules
    assert rule_from_dict({"kind": "adproxgd"}) == AdGD2()
    with pytest.raises(ConfigError):
        rule_from_dict({"kind": "newton"})


@pytest.mark.parametrize("d", [
    {"kind": "armijo", "s": 1.2}, {"kind": "fixed", "alpha": math.nan},
    {"kind": "badgd", "c": 2.0, "x": 1.0}, {"kind": "fixed", "alpha": [0.5]},
    {"kind": ["adgd2"]}, {"s": 1.2, "r": 0.5},
])
def test_rule_dicts_get_the_config_checks(d):
    with pytest.raises(ConfigError):
        rule_from_dict(d)


# ---------------------------------------------------------------------------
# essential-operation accounting
# ---------------------------------------------------------------------------

def replay(events, cost=None) -> Counters:
    """Counters after ``apply_event`` of each event, as a run whose prox part
    costs ``cost`` (``ProxFriendly.cost``) per call counts them."""
    counters = Counters()
    for event in events:
        apply_event(counters, cost or {}, event)
    return counters


def test_count_essential_nmf_linesearch_iteration():
    # three trials, one accepted and reused, then the next gradient
    events = ["prox", "value", "prox", "value", "prox", "value", "gradient", "reuse"]
    c = replay(events)
    assert c.func_evals == 3 and c.reused_evals == 1 and c.grad_evals == 1
    assert essential_units("nmf", c) == 3 * 1 + (3 - 1)


def test_count_essential_lrmc_adaptive_iteration():
    c = replay(["prox", "gradient"], {"svd_count": 1, "projection_count": 1})
    assert c.svd_count == 1
    assert essential_units("lrmc", c) == 1.0


def test_count_essential_mle_two_trials():
    c = replay(["prox", "value", "prox", "value"], {"eig_count": 1, "projection_count": 1})
    assert c.eig_count == 2 and c.projection_count == 2
    assert essential_units("mle", c) == 2.0


def test_unknown_event_rejected():
    with pytest.raises(ValueError):
        replay(["teleport"])
    with pytest.raises(ValueError):
        apply_event(Counters(), {"no_such_counter": 1}, "prox")


def test_dual_entropy_metric_weights():
    c = Counters(grad_evals=4, func_evals=3, reused_evals=2)
    assert essential_units("dual_entropy", c) == 2 * 4 + 1
    assert essential_units("quadratic", c) == 4 + 1


@pytest.mark.parametrize("kind", [*KINDS, "no_such_kind"])
def test_weight_rows_match_the_metric_ladder_bit_for_bit(kind):
    rng = np.random.default_rng(len(kind))
    rows = rng.integers(0, 10**6, size=(200, len(COUNTER_FIELDS)))
    rows[::7] = 0   # all-zero rows: a -0.0 total would differ from the ladder's 0.0
    rows[1::7, 6] = rows[1::7, 1]   # every evaluation reused
    got = essential_units_rows(kind, rows)
    want = ladder_essential_units_rows(kind, rows)
    assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
    assert math.copysign(1.0, essential_units(kind, Counters())) == 1.0   # +0.0


def test_snapshot_is_in_counter_fields_order():
    c = Counters(**{name: i + 1 for i, name in enumerate(COUNTER_FIELDS)})
    assert c.snapshot() == tuple(getattr(c, name) for name in COUNTER_FIELDS)
    apply_event(c, {"svd_count": 2}, "prox")
    apply_event(c, {}, "reuse")
    assert c.snapshot() == (1, 2, 4, 6, 5, 6, 8)
    assert Counters().snapshot() == (0,) * len(COUNTER_FIELDS)
    assert COUNTER_FIELDS == tuple(f.name for f in dataclasses.fields(Counters))


# ---------------------------------------------------------------------------
# run_experiment artifacts
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def small_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("run_small")
    cfg = parse_config(GOOD_CONFIG.format(out=out))
    results = run_experiment(cfg)
    return out, cfg, results


def test_artifacts_exist(small_run):
    out, cfg, results = small_run
    assert (out / "summary.csv").exists()
    assert (out / "meta.json").exists()
    assert len(results) == 2
    for r in results:
        assert (out / r.csv_name).exists()


def test_csv_header_and_roundtrip(small_run):
    out, _, results = small_run
    path = out / results[0].csv_name
    first = path.read_text().splitlines()[0]
    assert first == ("iter,alpha,theta,Lk,F,step_norm,grad_evals,func_evals,"
                     "prox_evals,svd_count,eig_count,projection_count,reused_evals")
    cols = read_trace_csv(path)
    names = first.split(",")
    rows = _trace_rows(results[0].trace)
    assert len(cols["iter"]) == len(rows)
    for j, name in enumerate(names):
        got = np.array([row[j] for row in rows], dtype=np.float64)
        assert np.array_equal(cols[name], got)  # repr round-trip is lossless
    assert np.all(np.diff(cols["iter"]) == 1)
    assert np.all(cols["alpha"] > 0)


def _trace_rows(t):
    # one tuple per step in CSV_HEADER order, with numpy scalars as recorded
    return [(k, t.alphas[k], t.thetas[k], t.curvatures[k], t.F_steps[k], t.step_norms[k],
             *t.counter_rows[k]) for k in range(len(t.alphas))]


def _csv_text_cell_by_cell(trace):
    # the formatter trace_csv_text replaced: a type dispatch on every cell
    def cell(v):
        return str(int(v)) if isinstance(v, (int, np.integer)) else repr(float(v))
    lines = [CSV_HEADER] + [",".join(map(cell, row)) for row in _trace_rows(trace)]
    return "\n".join(lines) + "\n"


def test_trace_csv_text_matches_cell_by_cell_formatter():
    diverged = run_solver(make_counterexample(12.0), BadGD(1.0),
                          RunConfig(max_iter=200, grad_tol=1e-14, record_trace=False))
    armijo = run_solver(make_problem("mle", 1), Armijo(1.2, 0.5),
                        RunConfig(max_iter=40, record_trace=False))
    assert diverged.status == "diverged" and np.isinf(diverged.F_steps[-1])
    for trace in (diverged, armijo):
        assert first_difference(trace_csv_text(trace), _csv_text_cell_by_cell(trace)) is None


def test_summary_totals_match_last_row(small_run):
    out, _, results = small_run
    lines = (out / "summary.csv").read_text().strip().splitlines()
    header = lines[0].split(",")
    for line, res in zip(lines[1:], results):
        cells = dict(zip(header, line.split(",")))
        last = res.trace.counter_rows[-1]
        assert int(cells["grad_evals"]) == last[0]
        assert int(cells["func_evals"]) == last[1]
        assert int(cells["prox_evals"]) == last[2]
        assert int(cells["projection_count"]) == last[5]
        assert int(cells["reused_evals"]) == res.trace.counters.reused_evals


def test_counters_monotone(small_run):
    _, _, results = small_run
    for r in results:
        diffs = np.diff(r.trace.counter_rows, axis=0)
        assert np.all(diffs >= 0)
        assert r.trace.counters.reused_evals <= r.trace.counters.func_evals


def test_rerun_byte_identical(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    for out in (out1, out2):
        cfg = parse_config(GOOD_CONFIG.format(out=out))
        run_experiment(cfg)
    for name in [p.name for p in out1.glob("*.csv")]:
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_csv_counter_columns_give_the_essential_units_of_every_row(tmp_path):
    """Every cell of the default matrix, stalled lrmc cells included: the units
    of each CSV row are those of the run's counter row, and the last row's are
    the summary's total unless a failed search came after it."""
    cfg = parse_config("[experiment]\nseed = 4\nmax_iter = 120\nreference = none\n"
                       f"plot = no\nout = {tmp_path}\n")
    results = run_experiment(cfg)
    lines = (tmp_path / "summary.csv").read_text().splitlines()
    header = lines[0].split(",")
    statuses = set()
    for line, res in zip(lines[1:], results, strict=True):
        cells = dict(zip(header, line.split(",")))
        kind, trace = res.instance.kind, res.trace
        cols = read_trace_csv(tmp_path / res.csv_name)
        units = essential_units_rows(kind, np.stack([cols[f] for f in COUNTER_FIELDS], axis=1))
        assert np.array_equal(units, essential_units_rows(kind, trace.counter_rows))
        total = float(cells["essential_total"])
        assert (units[-1] < total) if trace.status == "stalled" else (units[-1] == total)
        statuses.add(trace.status)
    assert len(results) == 50 and "stalled" in statuses


def test_ops_to_accuracy_thresholds(small_run):
    _, _, results = small_run
    tr = results[0].trace
    assert ops_to_accuracy(tr, "dual_entropy", math.inf) == 0.0
    assert ops_to_accuracy(tr, "dual_entropy", -math.inf) == math.inf
    mid = tr.F_steps[tr.iters // 2]
    ops = ops_to_accuracy(tr, "dual_entropy", mid)
    assert 0 < ops < essential_units("dual_entropy", tr.counters) + 1


@pytest.mark.parametrize("view, message", [
    pytest.param(trace_csv_text, "did not record rows", id="trace_csv_text"),
    pytest.param(lambda tr: ops_to_accuracy(tr, "curve", -math.inf), "trace has no rows",
                 id="ops_to_accuracy"),
    pytest.param(lambda tr: check_feasibility(make_problem("curve", 1), tr),
                 "not recorded with iterates", id="check_feasibility"),
])
def test_views_of_what_a_run_did_not_record_raise(view, message):
    bare = run_solver(make_problem("curve", 1), AdGD2(),
                      RunConfig(max_iter=5, record_trace=False, record_rows=False))
    with pytest.raises(ValueError, match=message):
        view(bare)


# ---------------------------------------------------------------------------
# references
# ---------------------------------------------------------------------------

def test_reference_quadratic_matches_closed_form(tmp_path):
    inst = make_quadratic(80, 15, 30.0)
    ref = make_reference(inst, tmp_path)
    assert np.linalg.norm(ref.x_star - inst.solution) <= 1e-10
    assert reference_path(tmp_path, inst).exists()


def test_reference_cache_hit(tmp_path):
    inst = make_quadratic(81, 10, 10.0)
    ref1 = make_reference(inst, tmp_path)
    path = reference_path(tmp_path, inst)
    stamp = path.stat().st_mtime_ns
    ref2 = make_reference(inst, tmp_path)
    assert path.stat().st_mtime_ns == stamp
    assert ref1.F_star == ref2.F_star
    assert np.array_equal(ref1.x_star, ref2.x_star)


def _loose_reference(inst, cache_dir, monkeypatch):
    """A reference built and cached under grad_tol = 1e-6, and its cache file."""
    with monkeypatch.context() as m:
        m.setattr("adgd.reference.REFERENCE_GRAD_TOL", 1e-6)
        return make_reference(inst, cache_dir), reference_path(cache_dir, inst)


def test_reference_cache_keyed_on_settings(tmp_path, monkeypatch):
    inst = make_min_curve(83, 5, 20)   # no closed form: the settings steer the solve
    tight = make_reference(inst, tmp_path)
    loose, loose_path = _loose_reference(inst, tmp_path, monkeypatch)
    assert tight.tolerance < 1e-6 <= loose.tolerance
    assert "grad_tol=1e-06" in loose.provenance
    assert reference_path(tmp_path, inst) != loose_path
    assert len(list(tmp_path.glob("ref_curve_*.npz"))) == 2
    assert make_reference(inst, tmp_path).F_star == tight.F_star


def test_reference_cache_rejects_file_of_other_settings(tmp_path, monkeypatch):
    inst = make_min_curve(84, 5, 20)
    loose, loose_path = _loose_reference(inst, tmp_path, monkeypatch)
    # a file built under other settings, sitting where the default lookup goes
    loose_path.replace(reference_path(tmp_path, inst))
    tight = make_reference(inst, tmp_path)
    assert "grad_tol=1e-12" in tight.provenance and tight.tolerance < loose.tolerance


@pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(),
                    reason="the writers are forked processes")
def test_reference_cache_concurrent_writers(tmp_path):
    inst = make_quadratic(85, 10, 10.0)
    built = make_reference(inst)

    def build():
        for _ in range(25):
            _save(reference_path(tmp_path, inst), built, _cache_settings(inst))

    context = multiprocessing.get_context("fork")
    writers = [context.Process(target=build) for _ in range(2)]
    for w in writers:
        w.start()
    for w in writers:
        w.join(timeout=120)
    assert [w.exitcode for w in writers] == [0, 0]
    path = reference_path(tmp_path, inst)
    assert sorted(p.name for p in tmp_path.iterdir()) == [path.name]   # no temp file left
    stamp = path.stat().st_mtime_ns
    ref = make_reference(inst, tmp_path)   # loads: a cache hit rewrites nothing
    assert path.stat().st_mtime_ns == stamp
    assert np.linalg.norm(ref.x_star - inst.solution) <= 1e-10


@pytest.mark.parametrize("inst", [
    make_quadratic(86, 10, 10.0), make_least_squares(87, 20, 8), make_quartic(),
    make_counterexample(), make_mle(88, 10), make_nmf(89, 10, 3),
], ids=lambda inst: inst.kind)
def test_reference_is_the_closed_form_solution(tmp_path, inst):
    ref = make_reference(inst, tmp_path)
    assert np.array_equal(ref.x_star, inst.solution)
    assert ref.F_star == evaluate_composite(inst.composite, inst.solution)
    assert "closed-form" in ref.provenance
    assert make_reference(inst, tmp_path).F_star == ref.F_star   # and the cache holds it


def test_reference_nmf_closed_form(tmp_path):
    inst = make_nmf(82, 10, 3)
    ref = make_reference(inst, tmp_path)
    assert np.min(ref.x_star) >= 0.0
    assert ref.F_star == 0.0
    assert not np.any(inst.composite.f.gradient(ref.x_star))
    assert ref.tolerance == 0.0


def test_reference_solve_out_of_budget_is_low_confidence(monkeypatch):
    monkeypatch.setattr("adgd.reference.REFERENCE_MAX_ITER", 5)
    ref = make_reference(make_problem("curve", 1))
    assert ref.provenance.endswith("iters=5, status=max_iter "
                                   "(low-confidence: budget exhausted)")


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_reference_mle_closed_form_matches_converged_solve(seed):
    inst = make_mle(seed, 10)
    closed = make_reference(inst)
    solved = make_reference(dataclasses.replace(inst, solution=None))
    assert "status=converged" in solved.provenance
    assert abs(closed.F_star - solved.F_star) <= 1e-14 * abs(closed.F_star)
    assert np.linalg.norm(closed.x_star - solved.x_star) <= 1e-10


# ---------------------------------------------------------------------------
# plotting
# ---------------------------------------------------------------------------

def test_plot_is_read_only_and_emits_svg(small_run):
    out, _, results = small_run
    before = {p.name: p.read_bytes() for p in out.glob("*.csv")}
    paths = plot_run_dir(out)
    assert len(paths) == 1
    svg = paths[0].read_text()
    assert svg.startswith("<svg") and "polyline" in svg
    after = {p.name: p.read_bytes() for p in out.glob("*.csv")}
    assert before == after


def test_plot_ignores_cache_file_of_other_settings(tmp_path, monkeypatch):
    """With its reference file missing, built under other settings or truncated,
    plot rebuilds the same file and draws the SVG that run drew."""
    out = tmp_path / "out"
    text = GOOD_CONFIG.format(out=out).replace("dual_entropy", "curve")
    run_experiment(parse_config(text.replace("reference = none", "reference = auto")
                                .replace("plot = no", "plot = yes")))
    inst = make_min_curve(3, 20, 100)
    path, svg = reference_path(out / "references", inst), out / "curve_gap_vs_ops.svg"
    built, drawn = path.read_bytes(), svg.read_bytes()

    def foreign():   # a file built under other settings, where the default lookup goes
        _loose_reference(inst, path.parent, monkeypatch)[1].replace(path)

    for damage in (path.unlink, foreign, lambda: path.write_bytes(built[:100])):
        damage()
        svg.unlink()
        assert plot_run_dir(out) == [svg]
        assert svg.read_bytes() == drawn
        assert path.read_bytes() == built
        assert [p.name for p in path.parent.iterdir()] == [path.name]


# ---------------------------------------------------------------------------
# CLI end to end
# ---------------------------------------------------------------------------

def test_cli_run_rejects_a_bad_config(tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_text("[experiment]\nbogus = 1\n")
    assert cli_main(["run", "--config", str(bad)]) == 2


def test_cli_run_check_plot_cycle(tmp_path):
    cfg_path = tmp_path / "exp.cfg"
    cfg_path.write_text(GOOD_CONFIG.format(out=tmp_path / "out"))
    assert cli_main(["run", "--config", str(cfg_path)]) == 0
    assert cli_main(["check", "--run", str(tmp_path / "out")]) == 0
    assert (tmp_path / "out" / "check_report.txt").exists()
    assert cli_main(["plot", "--run", str(tmp_path / "out")]) == 0

    # tampering with a stored trace must fail the check with exit code 4
    victim = next((tmp_path / "out").glob("dual_entropy__adproxgd*.csv"))
    text = victim.read_text().splitlines()
    cells = text[2].split(",")
    cells[4] = repr(float(cells[4]) + 1.0)
    text[2] = ",".join(cells)
    victim.write_text("\n".join(text) + "\n")
    assert cli_main(["check", "--run", str(tmp_path / "out")]) == 4


PLOTTED = """
[experiment]
seed = 2
max_iter = 60
plot = yes
reference = {reference}
problem = mle, curve, nmf
"""


@pytest.mark.parametrize("reference", ["none", "auto"])
def test_cli_plot_rewrites_the_svgs_that_run_drew(tmp_path, reference):
    """`run` draws its plots from the traces it holds, `plot` from the stored
    CSVs, through one renderer: the two write the same bytes."""
    cfg, out = tmp_path / "exp.cfg", tmp_path / "out"
    cfg.write_text(PLOTTED.format(reference=reference))
    assert cli_main(["run", "--config", str(cfg), "--out", str(out)]) == 0
    drawn = {p.name: p.read_bytes() for p in out.glob("*.svg")}
    assert sorted(drawn) == ["curve_gap_vs_ops.svg", "mle_gap_vs_ops.svg", "nmf_gap_vs_ops.svg"]
    for name in drawn:
        (out / name).unlink()
    assert cli_main(["plot", "--run", str(out)]) == 0
    assert first_difference(drawn, {p.name: p.read_bytes() for p in out.glob("*.svg")}) is None


def test_plot_legend_of_a_rule_without_its_own_label_is_its_kind(tmp_path):
    cfg, out = tmp_path / "exp.cfg", tmp_path / "out"
    cfg.write_text("[experiment]\nmax_iter = 20\nreference = none\n\n"
                   "[run.a]\nproblem = quadratic\nrule = adgd1\n\n"
                   "[run.b]\nproblem = quadratic\nrule = adgd2\n")
    assert cli_main(["run", "--config", str(cfg), "--out", str(out)]) == 0
    svg = (out / "quadratic_gap_vs_ops.svg").read_text()
    assert '>adgd1</text>' in svg and '>adaptive</text>' in svg


LRMC_CELL = """
[experiment]
seed = 4
max_iter = {max_iter}
reference = none
plot = no

[run.a]
problem = lrmc
rule = {rule}
"""


def test_cli_run_with_a_stalled_cell_exits_0_with_its_status(tmp_path, capsys):
    """Armijo(1.1, 0.9) on desk lrmc seed 4 finds no step at the rounding floor:
    the cell ends stalled, and the run writes every file."""
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(LRMC_CELL.format(max_iter=120, rule="armijo\ns = 1.1\nr = 0.9"))
    out = tmp_path / "out"
    assert cli_main(["run", "--config", str(cfg), "--out", str(out)]) == 0
    assert capsys.readouterr().err == ""
    header, row = (out / "summary.csv").read_text().splitlines()
    cells = dict(zip(header.split(","), row.split(",")))
    assert cells["status"] == "stalled"
    cols = read_trace_csv(out / "lrmc__armijo_s1.1_r0.9.csv")
    assert cols["iter"].size == int(cells["iterations"]) > 0
    # the essential total counts what the run spent, the failed search included
    assert float(cells["essential_total"]) == int(cells["svd_count"]) > cols["svd_count"][-1]
    assert (out / "meta.json").exists()


TWO_FIXED_CELLS = """
[experiment]
seed = 1
max_iter = 40
reference = none
plot = no

[run.a]
problem = curve
rule = fixed
alpha = 0.01

[run.b]
problem = curve
rule = fixed
alpha = 0.02
"""


def test_cli_two_cells_of_one_trace_name_get_numbered_csvs_that_check_reproduces(
        tmp_path, capsys):
    """Two fixed cells of different alpha on curve write curve__fixed.csv and
    curve__fixed_2.csv; check reruns each against its own file."""
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(TWO_FIXED_CELLS)
    out = tmp_path / "out"
    assert cli_main(["run", "--config", str(cfg), "--out", str(out)]) == 0
    meta = json.loads((out / "meta.json").read_text())
    assert [(c["csv"], c["rule"]) for c in meta["cells"]] == [
        ("curve__fixed.csv", {"kind": "fixed", "alpha": 0.01}),
        ("curve__fixed_2.csv", {"kind": "fixed", "alpha": 0.02})]
    first, second = ((out / name).read_text() for name in ("curve__fixed.csv",
                                                            "curve__fixed_2.csv"))
    assert first != second
    capsys.readouterr()
    assert cli_main(["check", "--run", str(out)]) == 0
    reproduced = [line for line in capsys.readouterr().out.splitlines()
                  if "trace_reproduction" in line]
    assert reproduced == [f"{'curve/fixed':36s} trace_reproduction          PASS"] * 2
    # the second cell's check reads the second file: swapping the two fails both
    (out / "curve__fixed.csv").write_text(second)
    (out / "curve__fixed_2.csv").write_text(first)
    assert cli_main(["check", "--run", str(out)]) == 4
    failed = [line for line in capsys.readouterr().out.splitlines() if " FAIL " in line]
    assert failed == [f"{'curve/fixed':36s} trace_reproduction          FAIL  "
                      "stored CSV differs"] * 2


def test_cli_check_on_a_cell_edited_to_a_stationary_start_exits_4(tmp_path, capsys):
    """With no observed entries the lrmc gradient is zero at x0: the rerun
    converges in one step, and only its trace reproduction fails."""
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(LRMC_CELL.format(max_iter=5, rule="adproxgd"))
    out = tmp_path / "out"
    assert cli_main(["run", "--config", str(cfg), "--out", str(out)]) == 0
    meta = json.loads((out / "meta.json").read_text())
    meta["cells"][0]["problem"]["params"]["fraction"] = 1e-9
    (out / "meta.json").write_text(json.dumps(meta))
    capsys.readouterr()
    assert cli_main(["check", "--run", str(out)]) == 4
    captured = capsys.readouterr()
    assert captured.err == ""
    assert captured.out.splitlines() == [
        f"{'lrmc/adproxgd':36s} trace_reproduction          FAIL  stored CSV differs"]


def _with_cell(change):
    def edit(text):
        meta = json.loads(text)
        change(meta["cells"][-1])
        return json.dumps(meta)
    return edit


OUTSIDE = "@outside@"   # stands for the parent of the run directory, as an absolute path


def _with_meta(change):
    def edit(text):
        meta = json.loads(text)
        change(meta)
        return json.dumps(meta)
    return edit


@pytest.mark.parametrize("edit", [
    pytest.param(None, id="no meta.json"),
    pytest.param(lambda text: text[:-5], id="not JSON"),
    pytest.param(lambda text: text.replace("adgd-run-meta-v2", "adgd-run-meta-v0"),
                 id="another format"),
    pytest.param(_with_cell(lambda cell: cell.update(rule={"kind": "armijo", "s": 1.2})),
                 id="rule its class rejects"),
    pytest.param(_with_cell(lambda cell: cell["problem"].update(kind="banana")),
                 id="unknown problem kind"),
    pytest.param(_with_cell(lambda cell: cell["problem"].update(kind=None)),
                 id="problem kind null"),
    pytest.param(_with_cell(lambda cell: cell.update(rule={"kind": "adgd1"})),
                 id="rule without prox on a prox problem"),
    pytest.param(_with_cell(lambda cell: cell.update(rule={"kind": "fixed", "alpha": True})),
                 id="rule parameter true"),
    pytest.param(_with_meta(lambda meta: meta.update(max_iter="abc")), id="max_iter abc"),
    pytest.param(_with_meta(lambda meta: meta.update(max_iter=0)), id="max_iter 0"),
    pytest.param(_with_meta(lambda meta: meta.update(max_iter=1.5)), id="max_iter 1.5"),
    pytest.param(_with_meta(lambda meta: meta.pop("grad_tol")), id="no grad_tol"),
    pytest.param(_with_meta(lambda meta: meta.update(grad_tol="tiny")), id="grad_tol text"),
    pytest.param(_with_meta(lambda meta: meta.update(alpha0=-1)), id="alpha0 -1"),
    pytest.param(_with_meta(lambda meta: meta.update(alpha0=None)), id="alpha0 null"),
    # json writes these as Infinity and true; RunConfig rejects them as a config does
    pytest.param(_with_meta(lambda meta: meta.update(alpha0=math.inf)), id="alpha0 Infinity"),
    pytest.param(_with_meta(lambda meta: meta.update(alpha0=True)), id="alpha0 true"),
    pytest.param(_with_meta(lambda meta: meta.update(max_iter=True)), id="max_iter true"),
    pytest.param(_with_meta(lambda meta: meta.update(grad_tol=math.inf)), id="grad_tol Infinity"),
    pytest.param(_with_meta(lambda meta: meta.update(reference="maybe")), id="reference maybe"),
    # names of CSV files that exist outside the run directory
    pytest.param(_with_cell(lambda cell: cell.update(csv=f"{OUTSIDE}/{cell['csv']}")),
                 id="CSV path absolute"),
    pytest.param(_with_cell(lambda cell: cell.update(csv=f"../{cell['csv']}")),
                 id="CSV path in the parent directory"),
])
@pytest.mark.parametrize("command", ["check", "plot"])
def test_check_and_plot_on_a_bad_run_directory_exit_2(small_run, tmp_path, capsys,
                                                      edit, command):
    out, _, _ = small_run
    run_dir = tmp_path / "run"
    run_dir.mkdir()
    for csv in out.glob("*.csv"):   # in the run directory and in its parent
        (run_dir / csv.name).write_bytes(csv.read_bytes())
        (tmp_path / csv.name).write_bytes(csv.read_bytes())
    if edit is not None:
        meta = edit((out / "meta.json").read_text())
        (run_dir / "meta.json").write_text(meta.replace(OUTSIDE, tmp_path.as_posix()))
    files = sorted(run_dir.iterdir())
    assert cli_main([command, "--run", str(run_dir)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert sorted(run_dir.iterdir()) == files   # no report, no plot


def test_check_and_plot_on_a_run_directory_of_meta_format_v1_exit_2(small_run, tmp_path,
                                                                      capsys):
    """A directory as written before the cell CSVs kept `reused_evals`: six
    counter columns and format v1.  One error line, not a failed reproduction."""
    out, _, _ = small_run
    run_dir = tmp_path / "run"
    run_dir.mkdir()
    meta = (out / "meta.json").read_text()
    for cell in json.loads(meta)["cells"]:
        lines = (out / cell["csv"]).read_text().splitlines()
        (run_dir / cell["csv"]).write_text("".join(f"{line.rsplit(',', 1)[0]}\n"
                                                   for line in lines))
    (run_dir / "meta.json").write_text(meta.replace('"adgd-run-meta-v2"', '"adgd-run-meta-v1"'))
    files = sorted(run_dir.iterdir())
    for command in ("check", "plot"):
        assert cli_main([command, "--run", str(run_dir)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert "adgd-run-meta-v2" in captured.err
    assert sorted(run_dir.iterdir()) == files   # no report, no plot


def _first_cell_problem(change):
    def edit(meta):
        meta["reference"] = "auto"   # so that plot builds the problem too
        change(meta["cells"][0]["problem"])
    return _with_meta(edit)


@pytest.mark.parametrize("edit", [
    pytest.param(_first_cell_problem(lambda desc: desc.update(
        kind="curve", params={"m": 500, "n": 100})), id="curve with m > n"),
    pytest.param(_first_cell_problem(lambda desc: desc.update(seed="x")), id="seed x"),
    pytest.param(_first_cell_problem(lambda desc: desc["params"].update(q=1)),
                 id="unknown parameter"),
    pytest.param(_first_cell_problem(lambda desc: desc.pop("seed")), id="no seed"),
    pytest.param(_first_cell_problem(lambda desc: desc.update(format="adgd-problem-v0")),
                 id="foreign format"),
    pytest.param(_first_cell_problem(lambda desc: desc.update(kind="mle", params={"n": 0})),
                 id="mle with n 0"),
    pytest.param(_first_cell_problem(lambda desc: desc.update(kind="lrmc", params={"n": 0})),
                 id="lrmc with n 0"),
    pytest.param(_first_cell_problem(lambda desc: desc.update(kind="nmf", params={"n": 0})),
                 id="nmf with n 0"),
    pytest.param(_first_cell_problem(lambda desc: desc["params"].update(n=0)),
                 id="dual_entropy with n 0"),
])
@pytest.mark.parametrize("command", ["check", "plot"])
def test_check_and_plot_on_a_cell_problem_that_cannot_be_built_exit_2(
        small_run, tmp_path, capsys, monkeypatch, edit, command):
    out, _, results = small_run
    run_dir = tmp_path / "run"
    run_dir.mkdir()
    for csv in out.glob("*.csv"):
        (run_dir / csv.name).write_bytes(csv.read_bytes())
    (run_dir / "meta.json").write_text(edit((out / "meta.json").read_text()))
    files = sorted(run_dir.iterdir())
    solves = []
    monkeypatch.setattr(adgd.experiments, "run_solver", lambda *a: solves.append(a))
    assert cli_main([command, "--run", str(run_dir)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert repr(results[0].csv_name) in captured.err   # the cell is named
    assert solves == []                         # no cell was rerun
    assert sorted(run_dir.iterdir()) == files   # no report, no reference, no plot


@pytest.mark.parametrize("command", ["check", "plot"])
def test_check_and_plot_with_a_missing_cell_csv_exit_2(small_run, tmp_path, capsys,
                                                       monkeypatch, command):
    out, _, results = small_run
    run_dir = tmp_path / "run"
    run_dir.mkdir()
    for f in out.iterdir():
        if f.is_file() and f.name != results[-1].csv_name:
            (run_dir / f.name).write_bytes(f.read_bytes())
    files = sorted(run_dir.iterdir())
    solves = []
    monkeypatch.setattr(adgd.experiments, "run_solver", lambda *a: solves.append(a))
    assert cli_main([command, "--run", str(run_dir)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert results[-1].csv_name in captured.err
    assert solves == []                         # no cell was rerun
    assert sorted(run_dir.iterdir()) == files   # no report, no plot


TWO_KINDS = """
[experiment]
name = two_kinds
seed = 1
scale = desk
out = {out}
plot = yes
max_iter = 30
reference = none

[run.curve]
problem = curve
rule = adproxgd

[run.nmf]
problem = nmf
rule = adproxgd
"""


@pytest.fixture(scope="module")
def two_kinds_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("run_two_kinds")
    return out, run_experiment(parse_config(TWO_KINDS.format(out=out)))


def _csv_cell(row, col, value):
    def edit(text):
        lines = text.splitlines()
        cells = lines[row].split(",")
        cells[col:col + 1] = value
        lines[row] = ",".join(cells)
        return "\n".join(lines) + "\n"
    return edit


@pytest.mark.parametrize("edit", [
    pytest.param(lambda text: text.replace("iter,", "step,", 1), id="renamed header"),
    pytest.param(_csv_cell(2, 4, ["abc"]), id="non-number cell"),
    pytest.param(_csv_cell(2, 11, []), id="short row"),
    # written as the byte 0xff by the surrogateescape encoding below
    pytest.param(lambda text: text + "\udcff", id="byte that is not UTF-8"),
])
def test_plot_on_a_malformed_cell_csv_exits_2_and_check_exits_4(two_kinds_run, tmp_path,
                                                                capsys, edit):
    out, results = two_kinds_run
    run_dir = tmp_path / "run"
    run_dir.mkdir()
    for f in out.iterdir():
        if f.suffix != ".svg":   # so that a plot written before the failure shows
            (run_dir / f.name).write_bytes(f.read_bytes())
    victim = run_dir / results[-1].csv_name
    victim.write_bytes(edit(victim.read_text()).encode("utf-8", "surrogateescape"))
    before = {f.name: f.read_bytes() for f in run_dir.iterdir()}
    assert cli_main(["plot", "--run", str(run_dir)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert repr(results[-1].csv_name) in captured.err
    assert {f.name: f.read_bytes() for f in run_dir.iterdir()} == before
    assert cli_main(["check", "--run", str(run_dir)]) == 4
    lines = capsys.readouterr().out.splitlines()
    tags = [f"{r.instance.kind}/{r.trace.rule_name}" for r in results]
    assert [line.split()[:3] for line in lines if "trace_reproduction" in line] == \
        [[tags[0], "trace_reproduction", "PASS"], [tags[1], "trace_reproduction", "FAIL"]]


@pytest.mark.parametrize("argv", [
    ["run", "--config", "c.ini"],
    ["reference", "--problem", "mle", "--cache", "refs"],
])
@pytest.mark.parametrize("seed", ["-1", "1.5", "x"])
def test_cli_seed_must_be_nonnegative_integer(tmp_path, monkeypatch, capsys, argv, seed):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "c.ini").write_text("[experiment]\nreference = none\n")
    with pytest.raises(SystemExit) as exc:
        cli_main(argv + ["--seed", seed])
    assert exc.value.code == 2
    assert "expected an integer >= 0" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["c.ini"]


def test_cli_scale_flag_changes_sizes(tmp_path):
    cfg = tmp_path / "one.ini"
    cfg.write_text("[experiment]\nmax_iter = 1\nreference = none\nplot = no\n\n"
                   "[run.mle]\nproblem = mle\nrule = adproxgd\n")
    assert cli_main(["run", "--config", str(cfg), "--out", str(tmp_path / "big"),
                     "--paper-scale"]) == 0
    meta = json.loads((tmp_path / "big" / "meta.json").read_text())
    assert [cell["problem"]["params"]["n"] for cell in meta["cells"]] == [100]


@pytest.mark.parametrize("argv", [
    ["run", "--config", "c.ini", "--out", "taken"],
    ["reference", "--problem", "mle", "--cache", "taken"],
])
def test_cli_output_path_that_is_a_file_exits_2(tmp_path, monkeypatch, capsys, argv):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "c.ini").write_text("[experiment]\nproblem = mle\nmax_iter = 1\n"
                                    "reference = none\nplot = no\n")
    (tmp_path / "taken").write_text("a file\n")
    monkeypatch.setattr("adgd.cli.make_reference",
                        lambda *args, **kwargs: pytest.fail("solved before the path failed"))
    assert cli_main(argv) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:")
    assert (tmp_path / "taken").read_text() == "a file\n"


@pytest.mark.parametrize("corrupt", [lambda data: data[:100], lambda data: b"",
                                     lambda data: b"not an npz file\n"],
                         ids=["truncated", "empty", "garbage"])
def test_cli_reference_rebuilds_a_corrupt_cache_file(tmp_path, corrupt):
    argv = ["reference", "--problem", "mle", "--seed", "1", "--cache", str(tmp_path)]
    assert cli_main(argv) == 0
    path = reference_path(tmp_path, make_problem("mle", 1))
    built = path.read_bytes()
    path.write_bytes(corrupt(built))
    assert cli_main(argv) == 0
    assert path.read_bytes() == built
    assert [p.name for p in tmp_path.iterdir()] == [path.name]   # no temp file left


BLAS_CELLS = """
[experiment]
name = blas
seed = 1
scale = desk
plot = no
max_iter = 150
reference = none

[run.mle]
problem = mle
rule = adproxgd

[run.lrmc]
problem = lrmc
rule = adproxgd

[run.nmf]
problem = nmf
rule = adproxgd

[run.dual_entropy]
problem = dual_entropy
rule = adproxgd

[run.mle_armijo]
problem = mle
rule = armijo
s = 1.2
r = 0.5
"""

# mle at paper scale: at two OpenBLAS threads the gemm in the box's prox
# rounds differently, and 30 steps carry that into the CSV, unless the
# program pins one thread itself
BLAS_PAPER_CELL = """
[experiment]
name = blas_paper
seed = 1
scale = paper
plot = no
max_iter = 30
reference = none

[run.mle]
problem = mle
rule = adproxgd
"""


def test_artifacts_identical_across_blas_threads(tmp_path):
    src = str(Path(adgd.__file__).resolve().parents[1])
    for name, text, files in (("desk", BLAS_CELLS, 7), ("paper", BLAS_PAPER_CELL, 3)):
        cfg = tmp_path / f"{name}.cfg"
        cfg.write_text(text)
        outputs = {}
        for threads in ("1", "2"):
            out = tmp_path / f"{name}_threads{threads}"
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
                       PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
            subprocess.run([sys.executable, "-m", "adgd", "run", "--config", str(cfg),
                            "--out", str(out)], env=env, check=True, capture_output=True,
                           timeout=600)
            outputs[threads] = {p.name: p.read_bytes() for p in sorted(out.iterdir())
                                if p.suffix in (".csv", ".json")}
        # the cells, summary.csv and meta.json
        assert len(outputs["1"]) == files
        assert first_difference(outputs["1"], outputs["2"]) is None, name


NO_SCIPY_SCRIPT = """
import sys
import adgd.cli
from adgd.problems import KINDS, make_problem
for scale in ("desk", "paper"):
    for kind in KINDS:
        inst = make_problem(kind, 1, scale)
        inst.composite.f.value(inst.x0)
        inst.composite.g.prox(1.0, inst.x0 + inst.composite.f.gradient(inst.x0))
assert adgd.cli.main(["run", "--config", sys.argv[1], "--out", sys.argv[2]]) == 0
print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
"""

NO_SCIPY_CELLS = """
[experiment]
seed = 1
plot = yes
max_iter = 30
reference = auto

[run.curve]
problem = curve
rule = adproxgd

[run.mle]
problem = mle
rule = adproxgd
"""


def test_cli_and_every_experiment_kind_run_without_scipy(tmp_path):
    # SciPy's import is half of `import adgd.cli`; no problem and no experiment path
    # may load it, at import or later in a run, its references and plots included
    cfg = tmp_path / "cells.cfg"
    cfg.write_text(NO_SCIPY_CELLS)
    src = str(Path(adgd.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-c", NO_SCIPY_SCRIPT, str(cfg),
                           str(tmp_path / "out")], env=env, capture_output=True, text=True,
                          timeout=600)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]"
    assert (tmp_path / "out" / "references").is_dir()
    assert (tmp_path / "out" / "curve_gap_vs_ops.svg").is_file()


CHECK_ONE_CELL = """
[experiment]
seed = 1
plot = no
max_iter = 60
reference = none

[run.curve]
problem = curve
rule = adproxgd
"""


@pytest.mark.parametrize("when", ["after_first_line", "before_start"])
def test_cli_output_reader_gone_is_quiet(tmp_path, when):
    # `adgd ... | head -1`: no traceback, the check still runs, and the exit
    # code is the command's own
    cfg = tmp_path / "one.cfg"
    cfg.write_text(CHECK_ONE_CELL)
    src = str(Path(adgd.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    argv = [sys.executable, "-m", "adgd", "run", "--config", str(cfg),
            "--out", str(tmp_path / "out"), "--check"]
    if when == "after_first_line":   # unbuffered: the first line arrives before the check
        proc = subprocess.Popen([argv[0], "-u", *argv[1:]], env=env,
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        assert proc.stdout.readline().startswith(b"wrote 1 trace(s)")
        proc.stdout.close()
    else:                            # buffered: the first write meets a closed pipe
        read_end, write_end = os.pipe()
        os.close(read_end)
        proc = subprocess.Popen(argv, env=env, stdout=write_end, stderr=subprocess.PIPE)
        os.close(write_end)
    err = proc.stderr.read().decode()
    assert proc.wait(timeout=120) == 0
    assert "Traceback" not in err and "BrokenPipe" not in err, err
    assert "PASS" in (tmp_path / "out" / "check_report.txt").read_text()
