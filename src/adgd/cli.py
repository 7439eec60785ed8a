"""Command-line front end.

Subcommands: run (execute a config), check (certify stored traces), plot
(SVGs from stored traces), reference (build or refresh a cached reference
solution).

Exit codes: 0 success, 2 config error or a file that cannot be read or
written, 3 numerical failure, 4 diagnostics failure under check.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

from .core import NumericalError
from .experiments import (
    ConfigError,
    check_run_dir,
    load_config,
    plot_run_dir,
    run_and_check,
    run_experiment,
)
from .problems import KINDS, make_problem
from .reference import make_reference, reference_path

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3
EXIT_DIAGNOSTICS = 4


def _seed(text: str) -> int:
    """argparse type of --seed: an integer >= 0, as the generators take."""
    if not text.strip().isdecimal():
        raise argparse.ArgumentTypeError(f"expected an integer >= 0, got {text!r}")
    return int(text)


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="adgd",
        description="Curvature-adaptive first-order methods: experiment harness",
    )
    sub = p.add_subparsers(dest="command", required=True)

    r = sub.add_parser("run", help="run the experiment matrix from a config")
    r.add_argument("--config", required=True)
    r.add_argument("--out", default=None, help="override the config output directory")
    r.add_argument("--seed", type=_seed, default=None, help="override the config seed")
    _scale_flags(r, default=None)
    r.add_argument("--check", action="store_true",
                   help="run diagnostics on the produced traces")

    c = sub.add_parser("check", help="re-run and certify a stored run directory")
    c.add_argument("--run", required=True, help="run directory with meta.json")

    pl = sub.add_parser("plot", help="render SVG plots from stored traces")
    pl.add_argument("--run", required=True)

    rf = sub.add_parser("reference", help="compute or refresh a cached reference")
    rf.add_argument("--problem", required=True, choices=sorted(KINDS))
    rf.add_argument("--seed", type=_seed, default=1)
    _scale_flags(rf)
    rf.add_argument("--cache", required=True, help="reference cache directory")
    rf.add_argument("--force", action="store_true")
    return p


def _scale_flags(sp, default="desk") -> None:
    grp = sp.add_mutually_exclusive_group()
    grp.add_argument("--desk-scale", dest="scale", action="store_const",
                     const="desk", default=default)
    grp.add_argument("--paper-scale", dest="scale", action="store_const", const="paper")


def _say(text: str) -> None:
    """Print to stdout.  Once its reader has gone (`adgd ... | head`), stdout
    is the null device: the command still finishes with its own exit code."""
    try:
        print(text, flush=True)
    except BrokenPipeError:
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "run":
            config = load_config(args.config)
            if args.out is not None:
                config.out = Path(args.out)
            if args.seed is not None:
                config.seed = args.seed
            if args.scale is not None:
                config.scale = args.scale
            results, lines, ok = run_and_check(config) if args.check \
                else (run_experiment(config), [], True)
            _say("\n".join([f"wrote {len(results)} trace(s) to {config.out}", *lines]))
            return EXIT_OK if ok else EXIT_DIAGNOSTICS

        if args.command == "check":
            lines, ok = check_run_dir(args.run, Path(args.run) / "check_report.txt")
            _say("\n".join(lines))
            return EXIT_OK if ok else EXIT_DIAGNOSTICS

        if args.command == "plot":
            for path in plot_run_dir(args.run):
                _say(f"wrote {path}")
            return EXIT_OK

        if args.command == "reference":
            inst = make_problem(args.problem, args.seed, args.scale)
            Path(args.cache).mkdir(parents=True, exist_ok=True)   # fail before a solve
            ref = make_reference(inst, args.cache, force=args.force)
            _say(f"{inst.label}: F_ref={ref.F_star!r} tol={ref.tolerance:g}")
            _say(f"  provenance: {ref.provenance}")
            _say(f"  cache: {reference_path(args.cache, inst)}")
            return EXIT_OK
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (ConfigError, OSError) as exc:   # OSError: an unreadable or unwritable path
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
