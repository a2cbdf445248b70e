"""Problem definition shared across the optimizer.

Holds the design space, objectives, constraints, hypotheses and Monte Carlo
evaluation records. All types here are immutable after construction and safe
to share across concurrent evaluators.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np

INTEGER = "integer"
CONTINUOUS = "continuous"
DIM_KINDS = (INTEGER, CONTINUOUS)

# Outcomes a simulator can report; a constraint bounds the rate of one of them.
EVENT_REJECT = "reject"
EVENT_ACCEPT = "accept"
EVENTS = (EVENT_REJECT, EVENT_ACCEPT)

MAX_OBJECTIVES = 3  # the most the exact hypervolume algorithms of ``pareto`` cover


def _read_only(values, dtype) -> np.ndarray:
    out = np.array(values, dtype=dtype)
    out.flags.writeable = False
    return out


def not_a_string(field: str, value) -> list[str]:
    """The problem of ``value`` as the string ``field`` must be; empty for a string."""
    return [] if isinstance(value, str) else [f"{field} must be a string, got {value!r}"]


def _refuse(problems: Sequence[str]) -> None:
    """Raise one ValueError naming every problem an object found in itself."""
    if problems:
        raise ValueError("; ".join(problems))


def repeated(names: Iterable[str]) -> list[str]:
    """Each name that occurs more than once, once."""
    return [name for name, count in Counter(names).items() if count > 1]


@dataclass(frozen=True)
class Dimension:
    """One design parameter with box bounds; refuses an unknown kind, bounds
    out of order and an integer dimension whose box holds no integer."""

    name: str
    lower: float
    upper: float
    kind: str = CONTINUOUS

    def __post_init__(self):
        problems = not_a_string("name", self.name)
        if self.kind not in DIM_KINDS:
            problems.append(f"dimension {self.name!r} has unknown kind {self.kind!r}")
        if not self.lower < self.upper:
            problems.append(f"dimension {self.name!r} has degenerate bound "
                            f"[{self.lower}, {self.upper}]")
        elif self.kind == INTEGER and math.ceil(self.lower) > math.floor(self.upper):
            problems.append(f"integer dimension {self.name!r} contains no integer "
                            f"in [{self.lower}, {self.upper}]")
        _refuse(problems)


@dataclass(frozen=True)
class DesignSpace:
    """The solution space: an axis-aligned box, one Dimension per parameter;
    refuses an empty box and a name given twice."""

    dims: tuple[Dimension, ...]

    def __post_init__(self):
        object.__setattr__(self, "dims", tuple(self.dims))
        problems = [] if self.dims else ["design space has no dimensions"]
        problems += [f"duplicate dimension name {name!r}"
                     for name in repeated(self.names)]
        _refuse(problems)

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

    def snap(self, coords: Sequence[float] | np.ndarray) -> np.ndarray:
        """Clip to bounds and round integer dimensions half up, for one design
        (D,) or rows (m, D); the result has the input's shape, and each row
        is snapped on its own, as a one-row call snaps it."""
        x = np.clip(np.asarray(coords, dtype=float), self.lower, self.upper)
        mask = self.integer_mask
        if mask.any():
            lo = np.ceil(self.lower[mask])
            hi = np.floor(self.upper[mask])
            x[..., mask] = np.clip(np.floor(x[..., mask] + 0.5), lo, hi)
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
        problems = not_a_string("name", self.name)
        if self.event not in EVENTS:
            problems.append(f"hypothesis {self.name!r} has unknown event {self.event!r}")
        _refuse(problems)


@dataclass(frozen=True)
class Constraint:
    """An upper bound on an error rate simulated under one hypothesis.

    ``nominal`` is the bound on the rate (e.g. 0.1 for a type II error rate
    constraint) and ``confidence`` is the quantile level p used when deciding
    feasibility from the surrogate model. A nominal outside (0, 1) and a
    confidence outside (0.5, 1) are refused.
    """

    label: str
    hypothesis: str
    nominal: float
    confidence: float = 0.9

    def __post_init__(self):
        problems = not_a_string("label", self.label)
        problems += not_a_string("hypothesis", self.hypothesis)
        if not 0.0 < self.nominal < 1.0:
            problems.append(f"constraint {self.label!r} nominal {self.nominal} "
                            "outside (0, 1)")
        if not 0.5 < self.confidence < 1.0:
            problems.append(f"constraint {self.label!r} confidence {self.confidence} "
                            "outside (0.5, 1)")
        _refuse(problems)


@dataclass(frozen=True)
class ObjectiveSpec:
    """Deterministic objectives, all minimized, evaluated many designs at once.

    Calling the spec takes an (m, D) array of raw design coordinates and
    returns an (m, B) array, one row of B objective values per design; one
    design is a one-row array. ``evaluate`` does the work, and row i of its
    result must depend on row i of the input alone, so a batch gives the
    values one-row calls would. Any other input or result shape raises
    ValueError, and zero rows return (0, B) without calling ``evaluate``.
    The labels must be distinct strings, at least one.
    """

    labels: tuple[str, ...]
    evaluate: Callable[[np.ndarray], np.ndarray]

    def __post_init__(self):
        object.__setattr__(self, "labels", tuple(self.labels))
        problems = [] if self.labels else ["at least one objective is required"]
        problems += [problem for label in self.labels
                     for problem in not_a_string("objective label", label)]
        if not problems:
            problems += [f"duplicate objective label {label!r}"
                         for label in repeated(self.labels)]
        _refuse(problems)

    @property
    def n_objectives(self) -> int:
        return len(self.labels)

    def __call__(self, rows: np.ndarray) -> np.ndarray:
        x = np.asarray(rows, dtype=float)
        if x.ndim != 2:
            raise ValueError(f"objectives take rows (m, D), got shape {x.shape}")
        want = (len(x), self.n_objectives)
        if not len(x):
            return np.empty(want)
        out = np.asarray(self.evaluate(x), dtype=float)
        if out.shape != want:
            raise ValueError(f"objective evaluator returned shape {out.shape} "
                             f"for {len(x)} row(s); expected {want}")
        return out


def mc_variance_of(successes, n_samples):
    """Monte Carlo variance y (1 - y) / n of a rate estimate, on the rate
    y = successes / n clamped to [1 / (2n), 1 - 1 / (2n)], so that it is
    never zero. Accepts scalars, giving a float, or arrays."""
    n = np.asarray(n_samples)
    low = 1.0 / (2.0 * n)
    y = np.minimum(np.maximum(successes / n, low), 1.0 - low)
    out = y * (1.0 - y) / n
    return float(out) if out.ndim == 0 else out


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


def cross_problems(
    constraints: Sequence[Constraint],
    hypotheses: Mapping[str, Hypothesis | None],
    objectives: ObjectiveSpec | None = None,
    reference_point: Sequence[float] | None = None,
) -> list[str]:
    """The rules between a problem's parts: constraint labels are distinct,
    each constraint names a known hypothesis, each hypothesis is keyed by its
    own name, there are at most MAX_OBJECTIVES objectives, and the reference
    point has one entry per objective (judged only when both are given).

    A name mapped to None is a hypothesis known by name alone, such as a
    config entry that failed its own checks: a constraint may name it, so
    that entry's fault is reported once.
    """
    problems = [f"duplicate label {label!r}"
                for label in repeated(c.label for c in constraints)]
    problems += [f"constraint {con.label!r} references unknown hypothesis "
                 f"{con.hypothesis!r}" for con in constraints
                 if con.hypothesis not in hypotheses]
    problems += [f"hypothesis key {name!r} does not match its name {hyp.name!r}"
                 for name, hyp in hypotheses.items()
                 if hyp is not None and hyp.name != name]
    if objectives is not None and objectives.n_objectives > MAX_OBJECTIVES:
        problems.append(f"{objectives.n_objectives} objectives given; the hypervolume "
                        f"covers at most {MAX_OBJECTIVES}")
    if (objectives is not None and reference_point is not None
            and len(reference_point) != objectives.n_objectives):
        problems.append(f"reference point has {len(reference_point)} entries for "
                        f"{objectives.n_objectives} objectives")
    return problems


@dataclass(frozen=True)
class Problem:
    """A full optimization problem: space, objectives, constraints, hypotheses
    and the hypervolume reference point.

    Each part refuses at construction what it can judge alone, and a Problem
    refuses what ``cross_problems`` finds: one ValueError names every problem,
    each once, so a Problem that exists is well-formed. ``cli.normalize_config``
    judges a config by these same rules before anything is written.
    """

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
        problems = cross_problems(self.constraints, self.hypotheses,
                                  self.objectives, self.reference_point)
        if problems:
            raise ValueError("invalid problem: " + "; ".join(problems))

    @property
    def constrained_hypotheses(self) -> tuple[str, ...]:
        """Hypothesis names that need simulation, in constraint order."""
        out: list[str] = []
        for con in self.constraints:
            if con.hypothesis not in out:
                out.append(con.hypothesis)
        return tuple(out)
