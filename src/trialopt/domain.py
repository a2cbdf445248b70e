"""Problem definition shared across the optimizer.

Holds the design space, objectives, constraints, hypotheses and Monte Carlo
evaluation records. All types here are immutable after construction and safe
to share across concurrent evaluators.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Container, Iterable, Mapping, Sequence

import numpy as np

INTEGER = "integer"
CONTINUOUS = "continuous"
DIM_KINDS = (INTEGER, CONTINUOUS)

# Outcomes a simulator can report; a constraint bounds the rate of one of them.
EVENT_REJECT = "reject"
EVENT_ACCEPT = "accept"
EVENTS = (EVENT_REJECT, EVENT_ACCEPT)


def _read_only(values, dtype) -> np.ndarray:
    out = np.array(values, dtype=dtype)
    out.flags.writeable = False
    return out


@dataclass(frozen=True)
class Dimension:
    """One design parameter with box bounds."""

    name: str
    lower: float
    upper: float
    kind: str = CONTINUOUS


@dataclass(frozen=True)
class DesignSpace:
    """The solution space: an axis-aligned box, one Dimension per parameter."""

    dims: tuple[Dimension, ...]

    def __post_init__(self):
        object.__setattr__(self, "dims", tuple(self.dims))

    @property
    def ndim(self) -> int:
        return len(self.dims)

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(d.name for d in self.dims)

    # bounds, span and mask are built once per space and shared, so they are read-only
    @cached_property
    def lower(self) -> np.ndarray:
        return _read_only([d.lower for d in self.dims], float)

    @cached_property
    def upper(self) -> np.ndarray:
        return _read_only([d.upper for d in self.dims], float)

    @cached_property
    def span(self) -> np.ndarray:
        return _read_only(self.upper - self.lower, float)

    @cached_property
    def integer_mask(self) -> np.ndarray:
        return _read_only([d.kind == INTEGER for d in self.dims], bool)

    def contains(self, coords: Sequence[float]) -> bool:
        x = np.asarray(coords, dtype=float)
        return x.shape == (self.ndim,) and bool(
            np.all(x >= self.lower) and np.all(x <= self.upper)
        )

    def normalize(self, coords: np.ndarray) -> np.ndarray:
        """Affine map of raw coordinates onto the unit cube."""
        x = np.asarray(coords, dtype=float)
        return (x - self.lower) / self.span

    def denormalize(self, unit: np.ndarray) -> np.ndarray:
        u = np.asarray(unit, dtype=float)
        return self.lower + u * self.span

    def snap(self, coords: Sequence[float]) -> np.ndarray:
        """Clip to bounds and round integer dimensions (half away from zero
        is irrelevant here: bounds are finite, so half-up is used)."""
        x = np.clip(np.asarray(coords, dtype=float), self.lower, self.upper)
        mask = self.integer_mask
        if mask.any():
            lo = np.ceil(self.lower[mask])
            hi = np.floor(self.upper[mask])
            x[mask] = np.clip(np.floor(x[mask] + 0.5), lo, hi)
        return x


@dataclass(frozen=True)
class DesignPoint:
    """A single candidate design: one value per design-space dimension."""

    coords: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "coords", tuple(float(c) for c in self.coords))

    @property
    def array(self) -> np.ndarray:
        return np.array(self.coords, dtype=float)


@dataclass(frozen=True)
class Hypothesis:
    """A named set of simulation conditions.

    ``event`` selects which simulator outcome is tallied when estimating the
    constrained rate under this hypothesis: "reject" for type I style
    constraints, "accept" for type II (power) constraints where the error is
    a failure to reject.
    """

    name: str
    params: Mapping[str, float]
    event: str = EVENT_REJECT

    def __post_init__(self):
        object.__setattr__(self, "params", dict(self.params))


@dataclass(frozen=True)
class Constraint:
    """An upper bound on an error rate simulated under one hypothesis.

    ``nominal`` is the bound on the rate (e.g. 0.1 for a type II error rate
    constraint) and ``confidence`` is the quantile level p used when deciding
    feasibility from the surrogate model.
    """

    label: str
    hypothesis: str
    nominal: float
    confidence: float = 0.9


@dataclass(frozen=True)
class ObjectiveSpec:
    """Deterministic objectives, all minimized, evaluated many designs at once.

    ``evaluate`` maps an (m, D) array of raw design coordinates to an (m, B)
    array, one row of B objective values per design; row i must depend on
    row i of the input alone, so a batch gives the values one-row calls
    would. Calling the spec accepts one design (D,) and returns (B,), or
    (m, D) and returns (m, B); any other result shape raises ValueError.
    """

    labels: tuple[str, ...]
    evaluate: Callable[[np.ndarray], np.ndarray]

    def __post_init__(self):
        object.__setattr__(self, "labels", tuple(self.labels))

    @property
    def n_objectives(self) -> int:
        return len(self.labels)

    def __call__(self, coords: Sequence[float] | np.ndarray) -> np.ndarray:
        x = np.asarray(coords, dtype=float)
        if x.ndim not in (1, 2):
            raise ValueError(f"objectives take one design (D,) or rows (m, D), "
                             f"got shape {x.shape}")
        rows = x.reshape(-1, x.shape[-1])
        want = (len(rows), self.n_objectives)
        if not len(rows):
            return np.empty(want)
        out = np.asarray(self.evaluate(rows), dtype=float)
        if out.shape != want:
            raise ValueError(f"objective evaluator returned shape {out.shape} "
                             f"for {len(rows)} row(s); expected {want}")
        return out[0] if x.ndim == 1 else out


def clamped_rate(estimate: float, n_samples: int) -> float:
    """Clamp a rate estimate away from {0, 1} so its variance is never zero."""
    lo = 1.0 / (2.0 * n_samples)
    return min(max(estimate, lo), 1.0 - lo)


def mc_variance_of(successes: int, n_samples: int) -> float:
    """Monte Carlo variance of a rate estimate, computed on the clamped rate."""
    y = clamped_rate(successes / n_samples, n_samples)
    return y * (1.0 - y) / n_samples


@dataclass(frozen=True)
class EvaluationRecord:
    """One Monte Carlo evaluation of a design point under one hypothesis."""

    point: DesignPoint
    hypothesis: str
    n_samples: int
    successes: int
    seed: int
    iteration: int = 0

    def __post_init__(self):
        if not 0 <= self.successes <= self.n_samples:
            raise ValueError(
                f"successes {self.successes} outside [0, {self.n_samples}]"
            )

    @property
    def estimate(self) -> float:
        return self.successes / self.n_samples

    @property
    def mc_variance(self) -> float:
        return mc_variance_of(self.successes, self.n_samples)


def pool_by_design(
    records: Iterable[EvaluationRecord],
) -> dict[DesignPoint, dict[str, tuple[int, int]]]:
    """Successes and samples summed per design point and hypothesis, as
    (successes, n); the points in the order of their first record."""
    pool: dict[DesignPoint, dict[str, tuple[int, int]]] = {}
    for rec in records:
        counts = pool.setdefault(rec.point, {})
        s, n = counts.get(rec.hypothesis, (0, 0))
        counts[rec.hypothesis] = (s + rec.successes, n + rec.n_samples)
    return pool


def constraint_value(estimate: float, constraint: Constraint) -> float:
    """Constraint function value g = estimate - nominal; <= 0 means within bound."""
    return estimate - constraint.nominal


@dataclass(frozen=True)
class ValidationReport:
    """All structural problems found; empty means well-formed."""

    problems: tuple[str, ...] = ()

    @property
    def ok(self) -> bool:
        return not self.problems

    def __bool__(self) -> bool:
        return self.ok


def constraint_problems(constraints: Sequence[Constraint],
                        hypotheses: Container[str] | None = None) -> list[str]:
    """Duplicate labels, nominals outside (0, 1), confidences outside (0.5, 1)
    and, given the hypothesis names, references to unknown hypotheses."""
    problems: list[str] = []
    seen_labels: set[str] = set()
    for con in constraints:
        if con.label in seen_labels:
            problems.append(f"duplicate label {con.label!r}")
        seen_labels.add(con.label)
        if not 0.0 < con.nominal < 1.0:
            problems.append(f"constraint {con.label!r} nominal {con.nominal} "
                            "outside (0, 1)")
        if not 0.5 < con.confidence < 1.0:
            problems.append(f"constraint {con.label!r} confidence {con.confidence} "
                            "outside (0.5, 1)")
        if hypotheses is not None and con.hypothesis not in hypotheses:
            problems.append(f"constraint {con.label!r} references unknown "
                            f"hypothesis {con.hypothesis!r}")
    return problems


def validate_problem(
    space: DesignSpace,
    objectives: ObjectiveSpec,
    constraints: Sequence[Constraint],
    hypotheses: Mapping[str, Hypothesis] | None = None,
) -> ValidationReport:
    """Check every structural invariant of a problem definition.

    Returns a report listing each violation; an empty report means the
    problem is well-formed. Cross-references against hypotheses are checked
    only when ``hypotheses`` is supplied.
    """
    problems: list[str] = []

    if space.ndim < 1:
        problems.append("design space has no dimensions")
    seen_names: set[str] = set()
    for dim in space.dims:
        if dim.name in seen_names:
            problems.append(f"duplicate dimension name {dim.name!r}")
        seen_names.add(dim.name)
        if dim.kind not in DIM_KINDS:
            problems.append(f"dimension {dim.name!r} has unknown kind {dim.kind!r}")
        if not dim.lower < dim.upper:
            problems.append(f"dimension {dim.name!r} has degenerate bound "
                            f"[{dim.lower}, {dim.upper}]")
        elif dim.kind == INTEGER and math.ceil(dim.lower) > math.floor(dim.upper):
            problems.append(f"integer dimension {dim.name!r} contains no integer "
                            f"in [{dim.lower}, {dim.upper}]")

    if objectives.n_objectives < 1:
        problems.append("at least one objective is required")
    if len(set(objectives.labels)) != len(objectives.labels):
        problems.append("duplicate objective label")

    problems.extend(constraint_problems(constraints, hypotheses))

    if hypotheses is not None:
        for name, hyp in hypotheses.items():
            if hyp.name != name:
                problems.append(f"hypothesis key {name!r} does not match its "
                                f"name {hyp.name!r}")
            if hyp.event not in EVENTS:
                problems.append(f"hypothesis {name!r} has unknown event "
                                f"{hyp.event!r}")

    return ValidationReport(tuple(problems))


@dataclass(frozen=True)
class Problem:
    """A full optimization problem: space, objectives, constraints, hypotheses
    and the hypervolume reference point."""

    space: DesignSpace
    objectives: ObjectiveSpec
    constraints: tuple[Constraint, ...]
    hypotheses: Mapping[str, Hypothesis]
    reference_point: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "constraints", tuple(self.constraints))
        object.__setattr__(self, "hypotheses", dict(self.hypotheses))
        object.__setattr__(
            self, "reference_point", tuple(float(v) for v in self.reference_point)
        )

    def validate(self) -> ValidationReport:
        report = validate_problem(
            self.space, self.objectives, self.constraints, self.hypotheses
        )
        problems = list(report.problems)
        if len(self.reference_point) != self.objectives.n_objectives:
            problems.append(
                f"reference point has {len(self.reference_point)} entries for "
                f"{self.objectives.n_objectives} objectives"
            )
        return ValidationReport(tuple(problems))

    @property
    def constrained_hypotheses(self) -> tuple[str, ...]:
        """Hypothesis names that need simulation, in constraint order."""
        out: list[str] = []
        for con in self.constraints:
            if con.hypothesis not in out:
                out.append(con.hypothesis)
        return tuple(out)
