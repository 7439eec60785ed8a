"""Adaptive gradient and proximal-gradient methods without linesearch.

Stepsizes come from observed gradient differences (a local curvature
estimate), so no smoothness constant is ever supplied.  The package ships the
two adaptive gradient rules and their proximal extension, classical baselines
(fixed step, backtracking), the projection operators the experiment problems
need, seeded problem generators, trajectory-level certificates of the
supporting inequalities, and a batch experiment harness.
"""

from .accounting import Counters, count_essential, essential_metric_name, essential_units
from .core import (
    CompositeProblem,
    DimensionMismatch,
    NumericalError,
    ProxFriendly,
    ReferenceSolution,
    SmoothFunction,
    composite,
    evaluate_composite,
    finite_difference_gradient,
)
from .problems import (
    ProblemInstance,
    counterexample_f,
    instance_descriptor,
    instance_from_descriptor,
    make_counterexample,
    make_dual_entropy,
    make_least_squares,
    make_logistic,
    make_lrmc,
    make_min_curve,
    make_mle,
    make_nmf,
    make_problem,
    make_quadratic,
    make_quartic,
)
from .prox import (
    project_affine,
    project_l1_ball,
    project_nonneg,
    project_nuclear_ball,
    project_spectral_box,
    prox_zero,
)
from .solvers import (
    AdGD1,
    AdGD2,
    Armijo,
    BadGD,
    FixedStep,
    OldAdGD,
    RULES,
    RunConfig,
    StepsizeRule,
    Trace,
    armijo_search,
    curvature_estimate,
    initial_stepsize_search,
    recover_subgradient,
    run_solver,
)

__version__ = "0.1.0"
