"""Batch experiment harness: configs, runs, CSV traces, summaries, checks.

A config is flat key = value text with [section] headers: one [experiment]
section of shared settings and optional [run.NAME] sections pinning
individual (problem, rule) cells.  Without run sections the default matrix
is the adaptive proximal gradient method plus nine backtracking variants on
every selected problem.  Unknown keys and malformed lines are rejected with
their line number.
"""

from __future__ import annotations

import dataclasses
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import List, Optional, Union

import numpy as np

from .accounting import COUNTER_FIELDS, essential_metric_name, essential_units_rows
from .core import process_map
from .diagnostics import run_certificates
from .problems import (
    EXPERIMENT_KINDS,
    KINDS,
    SCALE_NAMES,
    ProblemInstance,
    instance_descriptor,
    instance_from_descriptor,
    make_problem,
)
from .reference import make_reference
from .solvers import RULES, AdGD2, Armijo, RunConfig, Trace, run_solver
from .svgplot import gap_plot_svg

DEFAULT_ARMIJO_PAIRS = [
    (1.2, 0.5), (1.5, 0.8), (1.1, 0.5), (1.2, 0.9), (1.1, 0.9),
    (1.5, 0.5), (1.2, 0.8), (1.1, 0.8), (1.5, 0.9),
]

META_FORMAT = "adgd-run-meta-v2"


class ConfigError(ValueError):
    def __init__(self, message: str, lineno: Optional[int] = None):
        where = f" (line {lineno})" if lineno is not None else ""
        super().__init__(f"config error{where}: {message}")


# ---------------------------------------------------------------------------
# Rule (de)serialization
# ---------------------------------------------------------------------------

def rule_from_dict(d: dict, where: str = "a rule dict", problem: Optional[str] = None):
    """The rule of a ``rule_to_dict`` dict, with the checks of a [run.*] section;
    with ``problem``, also the checks of its pairing with that problem kind."""
    params = {key: (value, None) for key, value in d.items() if key != "kind"}
    return _parse_rule(where, None, d.get("kind"), None, params, problem)


def rule_to_dict(rule) -> dict:
    return {"kind": rule.kind, **dataclasses.asdict(rule)}


@dataclass(frozen=True)
class RunSpec:
    name: str
    problem: str
    rule: object


@dataclass
class ExperimentConfig:
    name: str = "experiment"
    seed: int = 1
    scale: str = "desk"
    out: Path = Path("runs/experiment")
    plot: bool = True
    max_iter: int = 2000
    grad_tol: float = 1e-9
    alpha0: Union[float, str] = "search"
    reference: str = "auto"    # auto | none
    problems: List[str] = field(default_factory=lambda: list(EXPERIMENT_KINDS))
    runs: List[RunSpec] = field(default_factory=list)

    def resolved_runs(self) -> List[RunSpec]:
        if self.runs:
            return self.runs
        out = []
        for kind in self.problems:
            out.append(RunSpec(f"{kind}__adaptive", kind, AdGD2()))
            for rule in [Armijo(s, r) for s, r in DEFAULT_ARMIJO_PAIRS]:
                out.append(RunSpec(f"{kind}__{rule.name}", kind, rule))
        return out


# ---------------------------------------------------------------------------
# Config text parsing
# ---------------------------------------------------------------------------

_EXPERIMENT_KEYS = {"name", "problem", "seed", "scale", "out", "plot",
                    "max_iter", "grad_tol", "alpha0", "reference"}
_BOOL = {"yes": True, "true": True, "1": True, "no": False, "false": False, "0": False}


def _parse_sections(text: str):
    sections = []
    current = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#") or line.startswith(";"):
            continue
        if line.startswith("["):
            if not line.endswith("]"):
                raise ConfigError("unterminated section header", lineno)
            current = {"name": line[1:-1].strip(), "lineno": lineno, "items": {}}
            sections.append(current)
            continue
        if "=" not in line:
            raise ConfigError(f"expected key = value, got {line!r}", lineno)
        if current is None:
            raise ConfigError("key outside of any [section]", lineno)
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key in current["items"]:
            raise ConfigError(f"duplicate key {key!r}", lineno)
        current["items"][key] = (value, lineno)
    return sections


def _want_float(value, lineno, key):
    try:
        if not isinstance(value, bool):   # a JSON true is no number
            return float(value)
    except (TypeError, ValueError):
        pass
    raise ConfigError(f"{key} must be a number, got {value!r}", lineno)


def _want_int(value, lineno, key, minimum):
    from decimal import Decimal   # imported here: `import adgd.cli` does not load it
    number = _want_float(value, lineno, key)   # text past float range reads inf
    # is_integer is false for inf, nan; the text is read exactly, as through
    # float 2**53 + 1 would become 2**53 and 2.0000000000000001 would become 2
    exact = Decimal(value) if number.is_integer() and number >= minimum else None
    if exact is None or exact != exact.to_integral_value():
        raise ConfigError(f"{key} must be an integer >= {minimum}, got {value!r}", lineno)
    return int(exact)


def _want_positive(value, lineno, key):
    number = _want_float(value, lineno, key)
    if not (math.isfinite(number) and number > 0):
        raise ConfigError(f"{key} must be a positive finite number, got {value!r}", lineno)
    return number


def parse_config(text: str) -> ExperimentConfig:
    cfg = ExperimentConfig()
    runs = []
    seen_experiment = False
    for sec in _parse_sections(text.removeprefix("\ufeff")):   # a byte-order mark
        name, lineno, items = sec["name"], sec["lineno"], sec["items"]
        if name == "experiment":
            if seen_experiment:
                raise ConfigError("duplicate [experiment] section", lineno)
            seen_experiment = True
            for key, (value, ln) in items.items():
                if key not in _EXPERIMENT_KEYS:
                    raise ConfigError(f"unknown key {key!r} in [experiment]", ln)
                if key == "name":
                    cfg.name = value
                elif key == "problem":
                    kinds = [p.strip() for p in value.split(",")] \
                        if value != "all" else list(EXPERIMENT_KINDS)
                    for i, k in enumerate(kinds):
                        if k not in KINDS:
                            raise ConfigError(f"unknown problem {k!r}", ln)
                        if k in kinds[:i]:
                            raise ConfigError(f"problem {k!r} is listed twice", ln)
                    cfg.problems = kinds
                elif key == "seed":
                    cfg.seed = _want_int(value, ln, key, 0)
                elif key == "scale":
                    if value not in SCALE_NAMES:
                        raise ConfigError("scale must be desk or paper", ln)
                    cfg.scale = value
                elif key == "out":
                    cfg.out = Path(value)
                elif key == "plot":
                    if value.lower() not in _BOOL:
                        raise ConfigError("plot must be yes or no", ln)
                    cfg.plot = _BOOL[value.lower()]
                elif key == "max_iter":
                    cfg.max_iter = _want_int(value, ln, key, 1)
                elif key == "grad_tol":
                    cfg.grad_tol = _want_positive(value, ln, key)
                elif key == "alpha0":
                    cfg.alpha0 = "search" if value == "search" else _want_positive(value, ln, key)
                elif key == "reference":
                    if value not in ("auto", "none"):
                        raise ConfigError("reference must be auto or none", ln)
                    cfg.reference = value
        elif name.startswith("run.") or name == "run":
            run_name = name[4:] or f"run{len(runs)}"
            if any(run.name == run_name for run in runs):
                raise ConfigError(f"duplicate run name {run_name!r}", lineno)
            params = dict(items)
            problem, _ = params.pop("problem", (None, None))
            rule_kind, rule_ln = params.pop("rule", (None, None))
            if rule_kind is None:
                raise ConfigError(f"[{name}] is missing a rule", lineno)
            if problem is None:
                raise ConfigError(f"[{name}] is missing a problem", lineno)
            rule = _parse_rule(f"[{name}]", lineno, rule_kind, rule_ln, params,
                               problem, items["problem"][1])
            runs.append(RunSpec(run_name, problem, rule))
        else:
            raise ConfigError(f"unknown section [{name}]", lineno)
    if not seen_experiment:
        raise ConfigError("missing [experiment] section")
    cfg.runs = runs
    return cfg


def _parse_rule(where, lineno, kind, kind_ln, params, problem=None, problem_ln=None):
    """The rule of a [run.*] section or a ``meta.json`` cell, named by ``where``;
    ``params`` maps key -> (value, line).  A ``problem`` kind must be known and
    have no prox part unless the rule takes one."""
    if problem is not None and problem not in KINDS:
        raise ConfigError(f"unknown problem {problem!r} in {where}", problem_ln)
    cls = RULES.get(kind) if isinstance(kind, str) else None
    if cls is None:
        raise ConfigError(f"unknown rule kind {kind!r} in {where}", kind_ln)
    fields = {f.name: f for f in dataclasses.fields(cls)}
    for key, (_, ln) in params.items():
        if key not in fields:
            raise ConfigError(f"unknown key {key!r} in {where} for rule {kind!r}", ln)
    missing = [key for key, f in fields.items()
               if f.default is dataclasses.MISSING and key not in params]
    if missing:
        raise ConfigError(f"rule {kind!r} in {where} needs {', '.join(missing)}", lineno)
    values = {key: _want_float(value, ln, key) for key, (value, ln) in params.items()}
    for key, (value, ln) in params.items():
        if not math.isfinite(values[key]):
            raise ConfigError(f"{key} must be a finite number, got {value!r}", ln)
    try:
        rule = cls(**values)
    except ValueError:  # the rules reject invalid parameters
        raise ConfigError(f"rule {kind!r} with params {sorted(values)} is invalid", lineno)
    if problem is not None and KINDS[problem].experiment and not rule.prox_ok:  # they have a prox part
        raise ConfigError(f"rule {kind!r} in {where} is not valid for "
                          f"problem {problem!r}, which has a prox part", lineno)
    return rule


def load_config(path) -> ExperimentConfig:
    data = Path(path).read_bytes()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        # the line as the parser counts it: the text before the byte decodes
        line = len((data[:exc.start].decode("utf-8") + ".").splitlines())
        raise ConfigError(f"not UTF-8 text: byte 0x{data[exc.start]:02x}", line) from None
    return parse_config(text)


# ---------------------------------------------------------------------------
# CSV
# ---------------------------------------------------------------------------

CSV_HEADER = "iter,alpha,theta,Lk,F,step_norm," + ",".join(COUNTER_FIELDS)


def trace_csv_text(trace: Trace) -> str:
    """A row per step in ``CSV_HEADER`` order: repr of floats, str of ints."""
    if trace.alphas is None:
        raise ValueError("run did not record rows; rerun with record_rows=True")
    floats = zip(*(a.tolist() for a in (trace.alphas, trace.thetas, trace.curvatures,
                                        trace.F_steps, trace.step_norms)))
    lines = [CSV_HEADER]
    for k, (row, c) in enumerate(zip(floats, trace.counter_rows.tolist())):
        lines.append(",".join([str(k), *map(repr, row), *map(str, c)]))
    return "\n".join(lines) + "\n"


def write_trace_csv(path, trace: Trace) -> None:
    Path(path).write_text(trace_csv_text(trace), encoding="utf-8")


def read_trace_csv(path) -> dict:
    """The columns of a cell CSV by name; ValueError unless the file has the
    cell header and one number per column in every row."""
    text = Path(path).read_text(encoding="utf-8").strip().splitlines()
    if text[:1] != [CSV_HEADER]:
        raise ValueError(f"unexpected CSV header in {path}")
    header = CSV_HEADER.split(",")
    cols = {name: [] for name in header}
    for i, line in enumerate(text[1:], start=2):
        cells = line.split(",")
        if len(cells) != len(header):
            raise ValueError(f"line {i} of {path} has {len(cells)} cells, not {len(header)}")
        for name, cell in zip(header, cells):
            cols[name].append(float(cell))
    return {name: np.asarray(vals) for name, vals in cols.items()}


# ---------------------------------------------------------------------------
# Running
# ---------------------------------------------------------------------------

SUMMARY_HEADER = ("problem,rule,status,iterations,final_F,essential_metric,"
                  "essential_total," + ",".join(COUNTER_FIELDS))


@dataclass
class CellResult:
    instance: ProblemInstance
    trace: Trace
    csv_name: str

    def summary_row(self) -> str:
        t = self.trace
        c = t.counters   # a stalled run's counters include its last, failed search
        total = essential_units_rows(self.instance.kind, [c.snapshot()])[0]
        cells = [self.instance.kind, t.rule_name, t.status, str(t.iters),
                 repr(float(t.F_final)), essential_metric_name(self.instance.kind),
                 repr(float(total))]
        cells += map(str, c.snapshot())
        return ",".join(cells)


def run_experiment(config: ExperimentConfig) -> List[CellResult]:
    """Execute every cell, writing one CSV per cell plus summary and metadata.

    The cells run through ``process_map``; the files are written here, in
    config order, as the traces come back.  With ``reference = auto`` each
    problem's reference is made first and cached under ``references/``.
    """
    return run_and_check(config, check=False)[0]


def run_and_check(config: ExperimentConfig, check: bool = True):
    """``run_experiment`` and, with ``check``, ``check_run_dir`` on its directory in
    one pool pass: each cell's check, rebuilt from the ``meta.json`` text, is a task
    beside the cells and starts first.  (results, lines, ok), or (results, [], True)."""
    out = Path(config.out)
    out.mkdir(parents=True, exist_ok=True)

    specs = config.resolved_runs()
    instances: dict = {}
    for spec in specs:
        if spec.problem not in instances:
            instances[spec.problem] = make_problem(spec.problem, config.seed, config.scale)
    run_cfg = RunConfig(max_iter=config.max_iter, grad_tol=config.grad_tol,
                        alpha0=config.alpha0, record_trace=False, record_rows=True)
    csv_names: List[str] = []
    for spec in specs:
        prox_run = instances[spec.problem].composite.has_prox_part
        base = f"{spec.problem}__{spec.rule.trace_name(prox_run)}"
        i, csv_name = 1, base + ".csv"
        while csv_name in csv_names:
            i += 1
            csv_name = f"{base}_{i}.csv"
        csv_names.append(csv_name)
    meta = {
        "format": META_FORMAT,
        "name": config.name,
        "seed": config.seed,
        "scale": config.scale,
        "max_iter": config.max_iter,
        "grad_tol": config.grad_tol,
        "alpha0": config.alpha0,
        "plot": config.plot,
        "reference": config.reference,
        "cells": [{"run_name": spec.name, "csv": csv_name, "rule": rule_to_dict(spec.rule),
                   "problem": instance_descriptor(instances[spec.problem])}
                  for spec, csv_name in zip(specs, csv_names)],
    }
    meta_text = json.dumps(meta, indent=2, sort_keys=True) + "\n"
    meta = json.loads(meta_text)   # as `check` and `plot` will read it
    problems = _problems(meta, out) if check or config.reference == "auto" else None
    certify = _certifier(meta, problems) if check else None
    n = len(specs)

    def task(i):
        return certify(i - n) if i >= n else run_solver(instances[specs[i].problem],
                                                        specs[i].rule, run_cfg)

    stream = process_map(task, 2 * n if check else n,
                         [*range(n, 2 * n), *range(n)] if check else None)
    results: List[CellResult] = []
    for spec, csv_name, trace in zip(specs, csv_names, stream):
        write_trace_csv(out / csv_name, trace)
        results.append(CellResult(instances[spec.problem], trace, csv_name))
    if not check:
        stream.close()   # the workers exit now, not after the plots

    summary_lines = [SUMMARY_HEADER] + [r.summary_row() for r in results]
    (out / "summary.csv").write_text("\n".join(summary_lines) + "\n", encoding="utf-8")
    (out / "meta.json").write_text(meta_text, encoding="utf-8")

    if config.plot:
        write_plots(out, meta, [(r.trace.F_steps, r.trace.counter_rows) for r in results],
                    problems)
    if not check:
        return results, [], True
    stored = ((out / csv_name).read_bytes() for csv_name in csv_names)
    return (results, *_check_report(zip(stored, stream), out))


# ---------------------------------------------------------------------------
# Essential-operation views
# ---------------------------------------------------------------------------

def ops_to_accuracy(trace: Trace, kind: str, threshold: float) -> float:
    """Essential units spent when F first reaches ``threshold``; inf if never."""
    if trace.F_initial <= threshold:
        return 0.0
    if trace.F_steps is None:
        raise ValueError("trace has no rows")
    hits = np.nonzero(trace.F_steps <= threshold)[0]
    if hits.size == 0:
        return math.inf
    units = essential_units_rows(kind, trace.counter_rows[hits[0]:hits[0] + 1])
    return float(units[0])


# ---------------------------------------------------------------------------
# Plotting and checking stored runs
# ---------------------------------------------------------------------------

def plot_run_dir(run_dir) -> List[Path]:
    """``write_plots`` from the stored cell CSVs, which it only reads.  Every CSV
    is read before the first SVG is written; a malformed CSV is a ConfigError
    that names it.  Under ``reference = auto`` the references come from
    ``make_reference``, which rebuilds a missing or unreadable cache file."""
    run_dir = Path(run_dir)
    meta = read_meta(run_dir)
    columns = []
    for cell in meta["cells"]:
        try:
            cols = read_trace_csv(run_dir / cell["csv"])
        except (OSError, ValueError) as exc:
            raise ConfigError(f"cannot read cell CSV {cell['csv']!r}: {exc}") from None
        columns.append((cols["F"], np.stack([cols[f] for f in COUNTER_FIELDS], axis=1)))
    problems = _problems(meta, run_dir) if meta["reference"] == "auto" else None
    return write_plots(run_dir, meta, columns, problems)


def write_plots(run_dir: Path, meta: dict, columns, problems=None) -> List[Path]:
    """Objective-gap vs essential-operations SVG per problem of the parsed
    ``meta.json``, from each cell's (F column, (n, 7) counter rows) in
    ``columns``, in cell order.  The gap is to the F* of the problem's reference
    in ``problems``, the ``_problems`` of the run, else to the best F of the
    problem's cells."""
    by_problem: dict = {}   # kind -> (the reference of its first cell, its cells)
    for i, (cell, (F, counter_rows)) in enumerate(zip(meta["cells"], columns)):
        ref = problems[i][1] if problems else None
        by_problem.setdefault(cell["problem"]["kind"], (ref, []))[1].append(
            (cell, F, counter_rows))
    outputs = []
    for kind, (ref, cells) in by_problem.items():
        anchor = ref.F_star if ref is not None else \
            min([math.inf, *(float(np.min(F)) for _, F, _ in cells if F.size)])
        curves = [(rule_from_dict(cell["rule"]).label,
                   essential_units_rows(kind, counter_rows), F - anchor)
                  for cell, F, counter_rows in cells]
        path = run_dir / f"{kind}_gap_vs_ops.svg"
        gap_plot_svg(f"{kind}: objective gap vs {essential_metric_name(kind)}",
                     curves, path, x_label=essential_metric_name(kind),
                     y_label="F - F_ref")
        outputs.append(path)
    return outputs


def check_run_dir(run_dir):
    """Re-run every stored cell deterministically and certify it.

    Each cell is regenerated from its descriptor, rerun with the recorded
    settings, byte-compared against the stored CSV, and passed through the
    applicable certificates, one ``process_map`` task per cell.  Writes the
    report to ``check_report.txt`` in ``run_dir`` and returns (lines, ok), in
    cell order.
    """
    run_dir = Path(run_dir)
    meta = read_meta(run_dir)
    certify = _certifier(meta, _problems(meta, run_dir))
    stored = ((run_dir / cell["csv"]).read_bytes() for cell in meta["cells"])
    return _check_report(zip(stored, process_map(certify, len(meta["cells"]))), run_dir)


def read_meta(run_dir) -> dict:
    """The parsed ``meta.json`` of a run directory.  ConfigError unless it is run
    metadata whose settings and every cell's rule, problem kind and CSV are valid."""
    path = Path(run_dir) / "meta.json"
    try:
        meta = json.loads(path.read_text(encoding="utf-8"))
        if meta.get("format") != META_FORMAT:
            raise ConfigError(f"{path} is not run metadata of format {META_FORMAT}")
        _rerun_config(meta)
        if meta["reference"] not in ("auto", "none"):
            raise ConfigError(f"reference must be auto or none in {path}")
        for i, cell in enumerate(meta["cells"]):
            # str: a null or non-string kind is reported as an unknown problem too
            rule_from_dict(cell["rule"], f"cell {i} of {path}", str(cell["problem"]["kind"]))
            # a plain file name: an absolute path, a separator or '..' could lead out
            if Path(cell["csv"]).name != cell["csv"] or cell["csv"] in ("", ".."):
                raise ConfigError(f"CSV {cell['csv']!r} of cell {i} of {path} is not a "
                                  "file name in the run directory")
            if not (path.parent / cell["csv"]).is_file():
                raise ConfigError(f"missing CSV {cell['csv']!r} of cell {i} of {path}")
    except ConfigError:
        raise
    except (AttributeError, KeyError, OSError, TypeError, ValueError) as exc:
        raise ConfigError(f"cannot read run metadata {path}: {exc!r}") from None
    return meta


def _rerun_config(meta: dict) -> RunConfig:
    """The settings of a run's ``meta.json``; TypeError or ValueError if invalid."""
    return RunConfig(max_iter=meta["max_iter"], grad_tol=meta["grad_tol"],
                     alpha0=meta["alpha0"], record_trace=True, record_rows=True)


def _cell_instance(cell: dict) -> ProblemInstance:
    """The problem of a ``meta.json`` cell, or ConfigError naming the cell."""
    try:
        return instance_from_descriptor(cell["problem"])
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"cannot build the problem of cell {cell['csv']!r}: {exc}") from None


def _problems(meta: dict, run_dir: Path) -> list:
    """(instance, reference) per cell of the parsed ``meta.json``: each distinct
    problem built once from its descriptor and, under ``reference = auto``, its
    reference taken once from ``make_reference`` with the cache ``references/``
    in ``run_dir`` (else None).  Called before any worker starts: no two workers
    ever build the same reference."""
    built: dict = {}
    for cell in meta["cells"]:
        key = json.dumps(cell["problem"], sort_keys=True)
        if key not in built:
            inst = _cell_instance(cell)
            built[key] = inst, (make_reference(inst, run_dir / "references")
                                if meta["reference"] == "auto" else None)
    return [built[json.dumps(cell["problem"], sort_keys=True)] for cell in meta["cells"]]


def _certifier(meta: dict, problems: list):
    """``certify(i)``: cell i of the parsed ``meta.json`` rerun on its problem of
    ``problems`` (``_problems``) and certified against its reference, as (tag,
    csv_text, certificate lines, ok)."""
    cells = meta["cells"]
    rules = [rule_from_dict(cell["rule"]) for cell in cells]
    cfg = _rerun_config(meta)

    def certify(i):
        inst, reference = problems[i]
        trace = run_solver(inst, rules[i], cfg)
        tag = f"{cells[i]['problem']['kind']}/{trace.rule_name}"
        reports = run_certificates(inst, trace, reference)
        return (tag, trace_csv_text(trace), [f"{tag:36s} {rep.to_line()}" for rep in reports],
                all(rep.passed for rep in reports))

    return certify


def _check_report(cells, run_dir: Path):
    """(lines, ok) of a check from (stored CSV bytes, ``certify`` result) per
    cell, the lines also written to ``check_report.txt`` in ``run_dir``: a rerun
    whose CSV differs from the stored one fails alone."""
    lines = []
    ok = True
    for stored, (tag, csv_text, cell_lines, cell_ok) in cells:
        if stored != csv_text.encode("utf-8"):
            lines.append(f"{tag:36s} trace_reproduction          FAIL  stored CSV differs")
            ok = False
        else:
            lines += [f"{tag:36s} trace_reproduction          PASS", *cell_lines]
            ok = ok and cell_ok
    (run_dir / "check_report.txt").write_text("\n".join(lines) + "\n", encoding="utf-8")
    return lines, ok
