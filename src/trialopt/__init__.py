"""Surrogate-assisted, constrained, multi-objective optimization for
simulation-based trial design: Monte Carlo estimates of operating
characteristics feed Gaussian-process models driving a hypervolume-based
expected-improvement search over design parameters.

Importing the package sets ``OPENBLAS_NUM_THREADS`` to ``"1"`` when it is
unset and leaves a value already set alone. The GP's matrices are small, so
OpenBLAS worker threads spend CPU time without saving wall time. OpenBLAS
reads the variable once, when numpy first loads it, so a process that loaded
numpy before importing ``trialopt`` keeps its own setting."""

import os

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from .acquisition import (
    PsoConfig,
    feasibility_quantile,
    prob_feasible_after,
    pso_maximize,
    quantile_update,
)
from .domain import (
    Constraint,
    DesignPoint,
    DesignSpace,
    Dimension,
    EvaluationRecord,
    Hypothesis,
    ObjectiveSpec,
    Problem,
)
from .engine import (
    BudgetConfig,
    RunAborted,
    RunState,
    fixed_design_search,
    load_checkpoint,
    recompute_feasible_set,
    resume_run,
    run,
    save_checkpoint,
    sobol_points,
)
from .gp import (
    GpConditioningError,
    GpModel,
    KernelParams,
    build_model,
    fit_hyperparameters,
    kernel,
    log_marginal_likelihood,
)
from .montecarlo import Batch, McEstimate, SimulationError, derive_replicate_seed, mc_estimate
from .pareto import (
    ApproximationSet,
    dominates,
    hypervolume,
    pareto_filter,
)
from .simlib import Scenario, get_scenario, register_scenario

__version__ = "0.1.0"
