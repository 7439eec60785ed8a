"""The batch harness end to end: config, runs, traces, summary, plots.

Equivalent CLI session:

    adgd run --config demo.cfg --check
    adgd plot --run runs/demo
    adgd reference --problem lrmc --seed 1 --cache runs/demo/references
"""

import tempfile
from pathlib import Path

from adgd.experiments import parse_config, plot_run_dir, run_experiment

CONFIG = """
[experiment]
name = demo
problem = lrmc
seed = 1
scale = desk
out = {out}
plot = yes
max_iter = 300
grad_tol = 1e-9
alpha0 = search
reference = auto
"""

with tempfile.TemporaryDirectory(prefix="adgd_demo_") as tmp:
    out = Path(tmp) / "run"
    config = parse_config(CONFIG.format(out=out))
    print(f"cells: {[spec.name for spec in config.resolved_runs()]}\n")

    results = run_experiment(config)
    for res in results:
        tr = res.trace
        print(f"{tr.rule_name:22s} status={tr.status:9s} iters={tr.iters:4d} "
              f"F={tr.F_final:12.6f} svds={tr.counters.svd_count}")

    print(f"\nartifacts in {out}:")
    for p in sorted(out.iterdir()):
        print("  ", p.name)

    plot_run_dir(out)
    print("\nobjective-gap plot:", out / "lrmc_gap_vs_ops.svg")
