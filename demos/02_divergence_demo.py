"""Why the stepsize growth bound is not optional.

Drop the growth bound and keep only the curvature bound (the divergent
variant) on a convex objective with 1-Lipschitz gradient whose tails flatten
out: same-sign iterate pairs see a vanishing curvature estimate, the next
step leapfrogs the minimum, and magnitudes explode doubly exponentially.
The adaptive method with the growth bound converges from the same start.
"""

import numpy as np

from adgd import AdGD2, BadGD, RunConfig, make_counterexample, run_solver
from adgd.diagnostics import check_divergence_pattern

inst = make_counterexample(12.0)

bad = run_solver(inst, BadGD(c=1.0), RunConfig(max_iter=200, grad_tol=1e-14))
print(f"divergent variant: status={bad.status} after {bad.iters} steps")
print(f"{'k':>3} {'x_k':>15} {'alpha_k':>12}")
for k, x in enumerate(bad.xs.ravel()):
    a = f"{bad.alphas[k]:12.4g}" if k < bad.iters else " " * 12
    print(f"{k:>3} {x:15.6g} {a}")

report = check_divergence_pattern(bad)
print("\npattern certificate:", report.to_line())

good = run_solver(inst, AdGD2(), RunConfig(max_iter=10000, grad_tol=1e-10))
print(f"\nadaptive control:  status={good.status} after {good.iters} steps, "
      f"|x|={abs(good.x_final[0]):.2e}")
