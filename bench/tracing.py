"""Spans around calls into the program's layers, recorded from outside.

The tracer patches public module attributes of the program inside this
process (``adgd.solvers.armijo_search``, ``adgd.experiments.write_trace_csv``
and the like) and wraps the oracle callables of every problem instance the
program builds or is handed.  Each call becomes a span (name, start, end,
parent) kept in memory; ``write`` stores them when the run ends.  Layer
metrics are self times (span minus its children) and counts.  Nothing here
is active in an untraced run.
"""

from __future__ import annotations

import dataclasses
import time
from collections import defaultdict
from pathlib import Path

import adgd.cli
import adgd.experiments
import adgd.reference
import adgd.solvers

# (module, attribute, span name); the wrapped callables keep their signatures
PATCHES = [
    (adgd.solvers, "run_solver", "solvers.run_solver"),
    (adgd.experiments, "run_solver", "solvers.run_solver"),
    (adgd.reference, "run_solver", "solvers.run_solver"),
    (adgd.solvers, "armijo_search", "solvers.armijo"),
    (adgd.solvers, "apply_event", "accounting.apply_event"),
    (adgd.experiments, "run_certificates", "diagnostics.certificates"),
    (adgd.experiments, "write_trace_csv", "experiments.csv_write"),
    (adgd.experiments, "read_trace_csv", "experiments.csv_read"),
    (adgd.experiments, "plot_run_dir", "experiments.plot_run_dir"),
    (adgd.experiments, "gap_plot_svg", "svgplot"),
    (adgd.experiments, "make_reference", "reference"),
    (adgd.cli, "run_experiment", "experiments.run_experiment"),
    (adgd.cli, "check_run_dir", "experiments.check_run_dir"),
]
INSTANCE_MAKERS = [(adgd.experiments, "make_problem"),
                   (adgd.experiments, "instance_from_descriptor")]
ORACLES = ("problems.value", "problems.gradient", "prox.prox", "prox.value")


class Tracer:
    def __init__(self):
        self.names = []          # span name per span
        self.starts = []
        self.ends = []
        self.parents = []        # index of the enclosing span, -1 at top level
        self.stack = [-1]
        self.counts = defaultdict(float)   # counters taken at span boundaries
        self.saved = []

    def wrap(self, name, fn, after=None):
        names, starts, ends, parents, stack = (self.names, self.starts, self.ends,
                                               self.parents, self.stack)
        clock = time.perf_counter

        def traced(*args, **kwargs):
            i = len(names)
            names.append(name)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(i)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()
            if after is not None:
                after(args, result)
            return result

        return traced

    # -- instrumented program --------------------------------------------------

    def instance(self, inst):
        """The same instance with every oracle callable traced."""
        c = inst.composite
        f = dataclasses.replace(c.f, value=self.wrap("problems.value", c.f.value),
                                gradient=self.wrap("problems.gradient", c.f.gradient))
        g = dataclasses.replace(c.g, value=self.wrap("prox.value", c.g.value),
                                prox=self.wrap("prox.prox", c.g.prox))
        return dataclasses.replace(inst, composite=dataclasses.replace(c, f=f, g=g))

    def _after(self, name):
        counts = self.counts
        if name == "solvers.armijo":
            def after(args, result):
                counts["solvers.armijo.trials"] += result[3]
        elif name == "solvers.run_solver":
            def after(args, result):
                counts["solvers.iterations"] += result.iters
                for arr in (result.xs, result.grads, result.subgrads):
                    if arr is not None:
                        counts["solvers.trajectory_bytes"] += arr.nbytes
        elif name == "diagnostics.certificates":
            def after(args, result):
                counts["diagnostics.reports"] += len(result)
        elif name == "experiments.csv_write":
            def after(args, result):
                counts["experiments.csv_bytes"] += Path(args[0]).stat().st_size
        else:
            after = None
        return after

    def install(self):
        for module, attr, name in PATCHES:
            fn = getattr(module, attr)
            self.saved.append((module, attr, fn))
            setattr(module, attr, self.wrap(name, fn, self._after(name)))
        for module, attr in INSTANCE_MAKERS:
            fn = getattr(module, attr)
            self.saved.append((module, attr, fn))
            setattr(module, attr, lambda *a, _fn=fn, **k: self.instance(_fn(*a, **k)))
        self._wrap_reference_hits()

    def _wrap_reference_hits(self):
        # a make_reference call whose cache file already exists is a cache hit
        module = adgd.experiments
        fn = module.make_reference
        counts = self.counts

        def counted(inst, cache_dir=None, *args, **kwargs):
            if cache_dir is not None and adgd.reference.reference_path(cache_dir, inst).exists():
                counts["reference.cache_hits"] += 1
            return fn(inst, cache_dir, *args, **kwargs)

        self.saved.append((module, "make_reference", fn))
        module.make_reference = counted

    def uninstall(self):
        while self.saved:
            module, attr, fn = self.saved.pop()
            setattr(module, attr, fn)

    # -- results ----------------------------------------------------------------

    def self_times(self):
        """Per span name: (calls, inclusive seconds, self seconds)."""
        n = len(self.names)
        child = [0.0] * n
        for i in range(n):
            p = self.parents[i]
            if p >= 0:
                child[p] += self.ends[i] - self.starts[i]
        out = defaultdict(lambda: [0, 0.0, 0.0])
        for i in range(n):
            d = self.ends[i] - self.starts[i]
            agg = out[self.names[i]]
            agg[0] += 1
            agg[1] += d
            agg[2] += d - child[i]
        return out

    def under(self, name, ancestor):
        """Inclusive seconds of ``name`` spans that run inside an ``ancestor`` span."""
        total = 0.0
        for i, nm in enumerate(self.names):
            if nm != name:
                continue
            p = self.parents[i]
            while p >= 0 and self.names[p] != ancestor:
                p = self.parents[p]
            if p >= 0:
                total += self.ends[i] - self.starts[i]
        return total

    def write(self, path):
        t0 = self.starts[0] if self.starts else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("index,name,start_s,end_s,parent\n")
            for i, nm in enumerate(self.names):
                fh.write(f"{i},{nm},{self.starts[i] - t0:.9f},{self.ends[i] - t0:.9f},"
                         f"{self.parents[i]}\n")


def layer_metrics(tracer: Tracer, rounds: int) -> dict:
    """Per-layer metrics per traced round, from the recorded spans."""
    st = tracer.self_times()
    counts = tracer.counts

    def calls(name):
        return st[name][0] / rounds if name in st else 0.0

    def self_s(name):
        return st[name][2] / rounds if name in st else 0.0

    m = {}
    for name in ORACLES:
        m[f"{name}.calls"] = (calls(name), "count")
        m[f"{name}.s"] = (self_s(name), "s")
    iters = counts["solvers.iterations"] / rounds
    run_incl = st["solvers.run_solver"][1] / rounds if "solvers.run_solver" in st else 0.0
    m["solvers.run_solver.s"] = (run_incl, "s")
    m["solvers.self_s"] = (self_s("solvers.run_solver"), "s")
    m["solvers.self_us_per_iter"] = (1e6 * self_s("solvers.run_solver") / iters if iters else 0.0,
                                     "us")
    m["solvers.armijo.calls"] = (calls("solvers.armijo"), "count")
    m["solvers.armijo.trials"] = (counts["solvers.armijo.trials"] / rounds, "count")
    m["solvers.armijo.s"] = (self_s("solvers.armijo"), "s")
    m["solvers.trajectory_mb"] = (counts["solvers.trajectory_bytes"] / rounds / 1e6, "MB")
    m["accounting.events"] = (calls("accounting.apply_event"), "count")
    m["accounting.s"] = (self_s("accounting.apply_event"), "s")
    m["diagnostics.certificates.s"] = (self_s("diagnostics.certificates"), "s")
    m["diagnostics.reports"] = (counts["diagnostics.reports"] / rounds, "count")
    m["reference.s"] = (self_s("reference"), "s")
    m["reference.cache_hits"] = (counts["reference.cache_hits"] / rounds, "count")
    m["experiments.csv_write.s"] = (self_s("experiments.csv_write"), "s")
    m["experiments.csv_bytes"] = (counts["experiments.csv_bytes"] / rounds, "B")
    m["experiments.csv_read.s"] = (self_s("experiments.csv_read"), "s")
    m["experiments.check_rerun.s"] = (
        tracer.under("solvers.run_solver", "experiments.check_run_dir") / rounds, "s")
    m["svgplot.s"] = (self_s("svgplot"), "s")
    m["cli.s"] = (self_s("cli"), "s")
    return m
