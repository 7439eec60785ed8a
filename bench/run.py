"""Benchmark of the adgd package: one workload per invocation.

    python3 bench/run.py --workload reference_solve --seed 1 --seconds 15 --trace 0

Runs the workload's set-up several times, then whole rounds of the workload
for ``--seconds`` seconds in one process with BLAS pinned to one thread,
checks every output against independent computations, and prints each
metric by name and unit.  The last line of standard output is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``.  With
``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1`` the
run records spans around the program's layers and reports per-layer metrics.
Outputs go to ``.bench_out/<workload>/`` under the repository root.
"""

from __future__ import annotations

import os

THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = THREADS  # before numpy is first imported

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_REPEATS = 3
MIN_ROUNDS = 2


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=["reference_solve", "desk_matrix", "run_check"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    return p.parse_args(argv)


def import_program():
    """Import adgd from this checkout's sources; return the seconds it took."""
    if not (SRC / "adgd" / "__init__.py").is_file():
        raise SystemExit(f"error: no program sources at {SRC / 'adgd'}")
    sys.path.insert(0, str(SRC))
    t0 = time.perf_counter()
    import adgd  # noqa: F401
    import adgd.cli  # noqa: F401
    elapsed = time.perf_counter() - t0
    if Path(adgd.__file__).resolve().parent != (SRC / "adgd").resolve():
        raise SystemExit(f"error: imported adgd from {adgd.__file__}, not {SRC}")
    return elapsed


def environment():
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": int(THREADS),
        "machine": platform.machine(),
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def timed_rounds(work, seconds: float, min_rounds: int, tracer=None):
    """Whole rounds until ``seconds`` have passed; the wall time of each."""
    walls = []
    start = time.perf_counter()
    while len(walls) < min_rounds or time.perf_counter() - start < seconds:
        t0 = time.perf_counter()
        work.round(tracer)
        walls.append(time.perf_counter() - t0)
        work.collect()
    return walls


def main(argv=None) -> int:
    args = parse_args(argv)
    import_s = import_program()
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import workloads  # noqa: E402

    out = OUT / args.workload
    if out.exists():
        shutil.rmtree(out)
    out.mkdir(parents=True)
    work = workloads.WORKLOADS[args.workload](args.seed, out)
    setups = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        work.setup()
        setups.append(time.perf_counter() - t0)
    setup_s = import_s + statistics.median(setups)

    if args.trace == 0:
        walls = timed_rounds(work, args.seconds, MIN_ROUNDS)
        rss = peak_rss_mb()
        iters, units = work.per_round()
        wall = statistics.median(walls)
        metrics = {
            "setup_s": (setup_s, "s"),
            "wall_s": (wall, "s"),
            "iters_per_s": (iters / wall, "1/s"),
            "essential_units": (float(units), "units"),
            "peak_rss_mb": (rss, "MB"),
        }
    else:
        import layers
        import tracing
        plain = timed_rounds(work, args.seconds / 2, 1)
        tracer = tracing.Tracer()
        tracer.install()
        try:
            traced = timed_rounds(work, args.seconds / 2, 1, tracer)
        finally:
            tracer.uninstall()
        metrics = tracing.layer_metrics(tracer, len(traced))
        metrics["tracing_overhead_s"] = (statistics.median(traced) - statistics.median(plain), "s")
        metrics["solvers.alpha0.probes"] = (layers.alpha0_probes(work), "count")
        metrics.update(layers.oracle_call_times(args.seed))
        metrics.update(layers.rows_overhead(args.seed))
        tracer.write(out / "spans.csv")

    problems = work.check()
    failed = sum(1 for _, p in problems if p)
    for label, p in problems:
        for msg in p[:3]:
            print(f"FAILED {label}: {msg}", file=sys.stderr)

    env = environment()
    result = {
        "correct": failed == 0,
        "attempted": len(problems),
        "failed": failed,
        "metrics": {name: {"value": float(v), "unit": u} for name, (v, u) in metrics.items()},
    }
    (out / "result.json").write_text(json.dumps(
        {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
         "trace": args.trace, "environment": env, **result}, indent=2) + "\n",
        encoding="utf-8")
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}")
    print("environment " + json.dumps(env, sort_keys=True))
    for name, (v, u) in metrics.items():
        print(f"{name} = {v:.6g} {u}")
    print(f"attempted {result['attempted']} failed {failed}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
