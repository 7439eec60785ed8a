"""Trajectory certificates: verify the supporting inequalities numerically.

Every run records enough data to evaluate, after the fact, the per-step
facts the convergence analysis relies on: stepsize bounds, gradient (or
subgradient) monotonicity, the decreasing energy, the running-min rate
bound, and the stepsize floor/sum facts with their breakpoint structure.
"""

from adgd import AdGD2, RunConfig, make_dual_entropy, run_solver
from adgd.diagnostics import detect_breakpoints, run_certificates
from adgd.reference import make_reference

inst = make_dual_entropy(seed=1, m=60, n=30)
print(f"problem: {inst.label} (dim {inst.composite.f.dimension})")

reference = make_reference(inst, cache_dir=None)
print(f"reference: F_ref={reference.F_star:.9f} ({reference.provenance})\n")

trace = run_solver(inst, AdGD2(), RunConfig(max_iter=2000, grad_tol=1e-10))
print(f"run: status={trace.status}, iters={trace.iters}, "
      f"F={trace.F_final:.9f}\n")

for report in run_certificates(inst, trace, reference):
    print(report.to_line())

record = detect_breakpoints(trace)
print(f"\nbreakpoints: {record.indices or 'none'} "
      f"(dichotomy ok: {record.dichotomy_ok})")
