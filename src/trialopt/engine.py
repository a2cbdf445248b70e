"""Outer optimization loop: Sobol initial design, the iterative
fit / acquire / evaluate / update cycle, approximation-set and hypervolume
tracking, checkpoint/resume, and the fixed-design baseline comparator."""

from __future__ import annotations

import json
import logging
import math
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Mapping, Sequence

import numpy as np

from .acquisition import (
    PsoConfig,
    expected_improvement_batch,
    feasibility_quantile,
    pso_maximize,
)
from .domain import (
    Constraint,
    DesignPoint,
    EvaluationRecord,
    Problem,
    _judge,
    _whole,
    mc_variance_of,
    pool_by_design,
)
from .gp import (
    GpConditioningError,
    GpModel,
    KernelParams,
    build_model,
    fit_hyperparameters,
    gp_predict_many,
)
from .montecarlo import TrialSimulator, derive_replicate_seed, mc_estimate
from .pareto import ApproximationSet, hypervolume, pareto_filter
from .sobol import sobol_points  # re-exported: the initial design generator

__all__ = [
    "BudgetConfig", "RunState", "CheckpointError",
    "sobol_points", "run", "require_resumable", "resume_run", "recompute_feasible_set",
    "fixed_design_search", "save_checkpoint", "load_checkpoint",
]

logger = logging.getLogger("trialopt.engine")

CHECKPOINT_FORMAT = "trialopt-checkpoint"
CHECKPOINT_VERSION = 1

# disjoint derived-seed index ranges hanging off the master seed
_PSO_INDEX_BASE = 1 << 31
_VERIFY_INDEX_BASE = 3 << 30

# flag a |z| above this between predicted and realized constraint values
_DIAGNOSTIC_Z = 4.0


class CheckpointError(RuntimeError):
    """Checkpoint file missing, corrupt, or of an unsupported version."""


@dataclass(frozen=True)
class BudgetConfig:
    """Evaluation budget: initial design size, samples per evaluation,
    iteration count and an optional cap on total simulator calls.

    Every field is a whole number: an int, or a whole float, which becomes
    an int; a bool, a fraction or a string is refused. ``iterations`` must
    be >= 0 and ``n_per_eval`` >= 1; ``initial_points`` must be >= 2, or
    None for 10 per dimension, and ``max_total_samples`` >= 1, or None for
    no cap. One ValueError names every problem."""

    iterations: int = 30
    n_per_eval: int = 100
    initial_points: int | None = None
    max_total_samples: int | None = None

    def __post_init__(self):
        _judge(self, {
            "iterations": (_whole, lambda v: v >= 0, ">= 0"),
            "n_per_eval": (_whole, lambda v: v >= 1, ">= 1"),
            "initial_points": (_whole, lambda v: v >= 2, ">= 2"),
            "max_total_samples": (_whole, lambda v: v >= 1, ">= 1"),
        })

    def resolve_initial_points(self, ndim: int) -> int:
        return self.initial_points if self.initial_points is not None else 10 * ndim


@dataclass
class RunState:
    """Everything the loop knows: records, fitted models, the current
    approximation set and the hypervolume trajectory."""

    problem: Problem
    budget: BudgetConfig
    pso: PsoConfig
    master_seed: int
    records: list[EvaluationRecord] = field(default_factory=list)
    params: dict[str, KernelParams] = field(default_factory=dict)
    models: dict[str, GpModel] = field(default_factory=dict)
    approx_set: ApproximationSet | None = None
    trajectory: list[float] = field(default_factory=list)
    iteration: int = 0
    fit_fallbacks: int = 0

    @property
    def total_samples(self) -> int:
        """Simulator samples spent so far, over every record."""
        return sum(r.n_samples for r in self.records)


def initial_design(problem: Problem, count: int) -> list[DesignPoint]:
    """Sobol points mapped to the design space, integer dims snapped."""
    space = problem.space
    coords = space.snap(space.denormalize(sobol_points(space.ndim, count)))
    return list(map(DesignPoint, coords.tolist()))


def _evaluate(
    state: RunState,
    sim: TrialSimulator,
    point: DesignPoint,
    hyp_name: str,
    iteration: int,
) -> EvaluationRecord:
    # the evaluation index is the number of records made before it
    eval_seed = derive_replicate_seed(state.master_seed, len(state.records), 0)
    est = mc_estimate(
        sim, point, state.problem.hypotheses[hyp_name],
        state.budget.n_per_eval, seed=eval_seed,
    )
    record = EvaluationRecord(
        point=point, hypothesis=hyp_name, n_samples=est.n_samples,
        successes=est.successes, seed=eval_seed, iteration=iteration,
    )
    state.records.append(record)
    return record


def _constraint_data(state: RunState, constraint: Constraint):
    """GP training data for one constraint: unit-cube inputs, g-scale targets,
    Monte Carlo noise variances."""
    rows = [r for r in state.records if r.hypothesis == constraint.hypothesis]
    coords = np.array([r.point.coords for r in rows], dtype=float)
    s = np.array([r.successes for r in rows])
    n = np.array([r.n_samples for r in rows])
    inputs = state.problem.space.normalize(coords)
    return inputs, s / n - constraint.nominal, mc_variance_of(s, n)


def _update_models(state: RunState, refit: bool) -> None:
    """(Re)fit one GP per constraint, then refresh the feasible set."""
    for con in state.problem.constraints:
        inputs, targets, noise = _constraint_data(state, con)
        params = state.params.get(con.label)
        if refit:
            warm = [params] if params is not None else []
            try:
                params = fit_hyperparameters(inputs, targets, noise, extra_starts=warm)
            except GpConditioningError:
                if params is None:
                    raise
                state.fit_fallbacks += 1
                logger.warning(
                    "hyperparameter fit failed for %r; keeping previous values",
                    con.label,
                )
        if params is None:
            raise GpConditioningError(
                f"no hyperparameters available for constraint {con.label!r}"
            )
        state.params[con.label] = params
        state.models[con.label] = build_model(inputs, targets, noise, params)
    state.approx_set = recompute_feasible_set(state)


def recompute_feasible_set(state: RunState) -> ApproximationSet:
    """Feasibility decided by current GP quantiles at every evaluated point
    (never raw Monte Carlo values), then Pareto-filtered."""
    problem = state.problem
    points = list(pool_by_design(state.records))
    if not points:
        return ApproximationSet((), problem.reference_point)
    unit = problem.space.normalize(np.array([p.coords for p in points]))
    feasible = np.ones(len(points), dtype=bool)
    for con in problem.constraints:
        mean, var = gp_predict_many(state.models[con.label], unit)
        feasible &= feasibility_quantile(mean, var, con.confidence) <= 0.0
    return _feasible_front(problem, points, feasible)


def _feasible_front(problem: Problem, points: Sequence[DesignPoint],
                    feasible: np.ndarray) -> ApproximationSet:
    """The nondominated feasible points, their objectives in one call."""
    kept = [p for p, ok in zip(points, feasible) if ok]
    coords = np.array([p.coords for p in kept], dtype=float)
    values = problem.objectives(coords.reshape(len(kept), problem.space.ndim))
    return ApproximationSet(tuple(pareto_filter(list(zip(kept, values.tolist())))),
                            problem.reference_point)


def _diagnose(state: RunState, fresh: Mapping[str, EvaluationRecord],
              predictions: Mapping[str, tuple[float, float]]) -> None:
    """Compare the constraint values predicted at the chosen point with those
    its ``fresh`` evaluations, one per hypothesis, realized."""
    for con in state.problem.constraints:
        rec = fresh[con.hypothesis]
        mean, var = predictions[con.label]
        scale = math.sqrt(var + rec.mc_variance)
        if scale <= 0.0:
            continue
        z = (rec.estimate - con.nominal - mean) / scale
        if abs(z) > _DIAGNOSTIC_Z:
            logger.warning(
                "iteration %d: realized %r value %.4f is %.1f sd from GP "
                "prediction %.4f", state.iteration, con.label,
                rec.estimate - con.nominal, z, mean,
            )


def _iterate(
    state: RunState,
    sim: TrialSimulator,
    iterations: int,
    on_iteration: Callable[[RunState], None],
) -> None:
    """Run up to ``iterations`` iterations, handing ``on_iteration`` the
    state once before the first and once after each."""
    on_iteration(state)
    problem = state.problem
    hyp_names = problem.constrained_hypotheses
    cost_per_iteration = state.budget.n_per_eval * len(hyp_names)
    for _ in range(iterations):
        if (state.budget.max_total_samples is not None
                and state.total_samples + cost_per_iteration
                > state.budget.max_total_samples):
            logger.info("sample cap reached after %d samples", state.total_samples)
            break
        it = state.iteration + 1

        def ei(coords: np.ndarray) -> np.ndarray:
            return expected_improvement_batch(
                coords, state.models, problem.constraints, state.approx_set,
                problem.objectives, state.budget.n_per_eval, problem.space,
            )

        pso_seed = derive_replicate_seed(state.master_seed, _PSO_INDEX_BASE + it, 0)
        best, _ = pso_maximize(ei, problem.space, state.pso, seed=pso_seed)
        point = DesignPoint(tuple(problem.space.snap(best)))

        unit = problem.space.normalize(point.array).reshape(1, -1)
        predictions = {}
        for con in problem.constraints:
            mean, var = gp_predict_many(state.models[con.label], unit)
            predictions[con.label] = (float(mean[0]), float(var[0]))

        fresh = {name: _evaluate(state, sim, point, name, it) for name in hyp_names}
        state.iteration = it
        _diagnose(state, fresh, predictions)
        _update_models(state, refit=True)
        state.trajectory.append(hypervolume(state.approx_set))
        on_iteration(state)


def run(
    problem: Problem,
    sim: TrialSimulator,
    budget: BudgetConfig,
    pso: PsoConfig | None = None,
    seed: int = 0,
    on_iteration: Callable[[RunState], None] = lambda state: None,
) -> RunState:
    """Execute the full loop: initial design, then fit/acquire/evaluate cycles.

    ``sim`` serves every constrained hypothesis: it is called with the
    hypothesis of each evaluation. Deterministic given the seed.
    ``on_iteration(state)`` is called at each iteration boundary: once the
    initial design is fitted, and after each iteration's trajectory entry. A
    checkpoint of the state handed there resumes to what the whole run gives.
    A GpConditioningError or SimulationError propagates.
    """
    if not problem.constraints:
        raise ValueError("at least one constraint is required")
    state = RunState(
        problem=problem, budget=budget, pso=pso or PsoConfig(), master_seed=seed,
    )
    count = budget.resolve_initial_points(problem.space.ndim)
    for point in initial_design(problem, count):
        for name in problem.constrained_hypotheses:
            _evaluate(state, sim, point, name, 0)
    _update_models(state, refit=True)
    state.trajectory.append(hypervolume(state.approx_set))
    _iterate(state, sim, budget.iterations, on_iteration)
    return state


def require_resumable(data: CheckpointData, problem: Problem) -> None:
    """Refuse (CheckpointError) a checkpoint that ``problem`` cannot resume:
    one with hyperparameters for a constraint the problem lacks, or with a
    record whose point has other than one coordinate per dimension or whose
    hypothesis is not one of the problem's."""
    unknown = sorted(set(data.params) - {c.label for c in problem.constraints})
    if unknown:
        raise CheckpointError("checkpoint has hyperparameters for constraint(s) "
                              f"{unknown} that the problem lacks")
    for i, rec in enumerate(data.records):
        if len(rec.point.coords) != problem.space.ndim:
            raise CheckpointError(f"checkpoint record {i} has {len(rec.point.coords)} "
                                  f"coordinates for {problem.space.ndim} dimensions")
        if not (isinstance(rec.hypothesis, str) and rec.hypothesis in problem.hypotheses):
            raise CheckpointError(f"checkpoint record {i} names hypothesis "
                                  f"{rec.hypothesis!r}, which the problem lacks")


def resume_run(
    data: CheckpointData,
    problem: Problem,
    sim: TrialSimulator,
    budget: BudgetConfig,
    pso: PsoConfig | None = None,
    iterations: int = 0,
    on_iteration: Callable[[RunState], None] = lambda state: None,
) -> RunState:
    """Rebuild state from a checkpoint and continue for ``iterations`` more,
    ``sim`` serving every constrained hypothesis as in ``run``.
    ``on_iteration`` is called as in ``run``: once the rebuilt models are in
    place, and after each further iteration. Errors propagate as in ``run``.

    To revise a bound, pass a problem with the revised constraints: the GPs
    are rebuilt against it (stored hyperparameters, new targets) and the
    feasible set is recomputed before any further simulation. The problem
    must be able to resume the checkpoint (``require_resumable``).
    """
    require_resumable(data, problem)
    state = RunState(
        problem=problem, budget=budget, pso=pso or PsoConfig(),
        master_seed=data.master_seed,
        records=list(data.records),
        params=dict(data.params),
        iteration=data.iteration,
        trajectory=list(data.trajectory),
    )
    _update_models(state, refit=False)
    _iterate(state, sim, iterations, on_iteration)
    return state


def fixed_design_search(
    problem: Problem,
    sim: TrialSimulator,
    count: int,
    n_samples: int,
    confidence: float = 0.975,
    seed: int = 0,
) -> tuple[ApproximationSet, list[EvaluationRecord]]:
    """One-shot comparator: evaluate each point of a Sobol design once and
    keep points whose one-sided upper confidence bound clears every
    constraint; a point the snapped design repeats is judged on its pooled
    evaluations. ``sim`` serves every constrained hypothesis, as in ``run``.

    ``confidence`` is the one-sided level of the bound ``estimate +
    z(confidence) * mc_se``; 0.975 reproduces a two-sided 95% interval check,
    0.5 collapses the bound onto the raw estimate.
    """
    budget = BudgetConfig(iterations=0, n_per_eval=n_samples)
    state = RunState(problem=problem, budget=budget, pso=PsoConfig(), master_seed=seed)
    for point in initial_design(problem, count):
        for name in problem.constrained_hypotheses:
            _evaluate(state, sim, point, name, 0)

    pool = pool_by_design(state.records)
    points = list(pool)
    feasible = np.ones(len(points), dtype=bool)
    for con in problem.constraints:
        s, n = np.array([pool[p][con.hypothesis] for p in points]).T
        bound = feasibility_quantile(s / n, mc_variance_of(s, n), confidence)
        feasible &= bound < con.nominal
    return _feasible_front(problem, points, feasible), state.records


def verify_seed(master_seed: int, index: int) -> int:
    """Seed for the i-th verification evaluation, disjoint from run streams."""
    return derive_replicate_seed(master_seed, _VERIFY_INDEX_BASE + index, 0)


# ---------------------------------------------------------------------------
# checkpointing
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CheckpointData:
    """Deserialized checkpoint contents."""

    master_seed: int
    iteration: int
    records: tuple[EvaluationRecord, ...]
    params: Mapping[str, KernelParams]
    trajectory: tuple[float, ...]
    config_hash: str | None = None


def save_checkpoint(state: RunState, path: str | Path,
                    config_hash: str | None = None) -> None:
    """Serialize the run state; floats survive the JSON round trip bit-exactly.
    Atomic: a temporary file beside ``path`` is synced to disk, then replaces
    it; the temporary file is removed if any step fails."""
    doc = {
        "format": CHECKPOINT_FORMAT,
        "version": CHECKPOINT_VERSION,
        "master_seed": state.master_seed,
        "iteration": state.iteration,
        "eval_counter": len(state.records),
        "total_samples": state.total_samples,
        "config_hash": config_hash,
        "trajectory": list(state.trajectory),
        "constraints": [
            {"label": c.label, "hypothesis": c.hypothesis,
             "nominal": c.nominal, "confidence": c.confidence}
            for c in state.problem.constraints
        ],
        "gp_params": {
            label: {"sigma": p.sigma, "lengthscales": list(p.lengthscales)}
            for label, p in state.params.items()
        },
        "records": [
            {"point": list(r.point.coords), "hypothesis": r.hypothesis,
             "n_samples": r.n_samples, "successes": r.successes,
             "seed": r.seed, "iteration": r.iteration}
            for r in state.records
        ],
    }
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as fh:
            fh.write(json.dumps(doc).encode("utf-8"))
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def load_checkpoint(path: str | Path) -> CheckpointData:
    try:
        doc = json.loads(Path(path).read_bytes())
    except FileNotFoundError as exc:
        raise CheckpointError(f"checkpoint not found: {path}") from exc
    except ValueError as exc:  # malformed JSON or UTF-8, or an integer of over 4300 digits
        raise CheckpointError(f"corrupt checkpoint {path}: {exc}") from exc
    if not isinstance(doc, dict) or doc.get("format") != CHECKPOINT_FORMAT:
        raise CheckpointError(f"{path} is not a trialopt checkpoint")
    if doc.get("version") != CHECKPOINT_VERSION:
        raise CheckpointError(
            f"checkpoint version {doc.get('version')} unsupported "
            f"(expected {CHECKPOINT_VERSION})"
        )
    try:
        records = tuple(
            EvaluationRecord(
                point=DesignPoint(tuple(r["point"])),
                hypothesis=r["hypothesis"],
                n_samples=r["n_samples"],
                successes=r["successes"],
                seed=r["seed"],
                iteration=r["iteration"],
            )
            for r in doc["records"]
        )
        params = {
            label: KernelParams(p["sigma"], tuple(p["lengthscales"]))
            for label, p in doc["gp_params"].items()
        }
        # the counters are derived from the records, and written for readers
        if (doc["eval_counter"], doc["total_samples"]) != (
                len(records), sum(r.n_samples for r in records)):
            raise ValueError(f"eval_counter {doc['eval_counter']} and total_samples "
                             f"{doc['total_samples']} disagree with the "
                             f"{len(records)} records")
        return CheckpointData(
            master_seed=doc["master_seed"],
            iteration=doc["iteration"],
            records=records,
            params=params,
            trajectory=tuple(doc["trajectory"]),
            config_hash=doc.get("config_hash"),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise CheckpointError(f"corrupt checkpoint {path}: {exc}") from exc
