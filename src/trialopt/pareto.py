"""Pareto dominance, approximation sets and exact dominated hypervolume.

All objectives are minimized. Exact hypervolume covers one to three
objectives with a vectorised nondominated mask, one staircase sweep (2-D)
and slices along the third objective, each measured by that sweep (3-D).
Members not strictly inside the reference box are kept but add no volume.

The sweep visits rows in lexicographic order, so a row that another row
dominates or equals comes after it and is skipped without any arithmetic:
the other rows get the same products, in the same order, as on the filtered
set. 3-D rows are masked first, because a dominated row's level would split
a slice in two and change the rounding of the sum.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .domain import DesignPoint

MAX_OBJECTIVES = 3


class UnsupportedDimensionError(ValueError):
    """Hypervolume requested for more objectives than the exact algorithms cover."""


def dominates(a: Sequence[float], b: Sequence[float]) -> bool:
    """True iff a <= b componentwise with strict improvement somewhere."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != b.shape:
        raise ValueError("objective vectors must have equal length")
    return bool(np.all(a <= b) and np.any(a < b))


def nondominated_mask(rows: np.ndarray) -> np.ndarray:
    """True for each row of an (n, B) array that no other row dominates; of
    equal rows only the first is kept."""
    # le[j, i]: row j <= row i componentwise
    le = np.logical_and.reduce([c[:, None] <= c for c in np.asarray(rows, dtype=float).T])
    order = np.arange(len(le))
    return ~(le & (~le.T | (order[:, None] < order))).any(axis=0)


@dataclass(frozen=True)
class ApproximationSet:
    """Mutually nondominated evaluated solutions plus the reference point."""

    members: tuple[tuple[DesignPoint, tuple[float, ...]], ...]
    reference: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "members", tuple(
            (p, tuple(float(v) for v in obj)) for p, obj in self.members))
        object.__setattr__(self, "reference", tuple(float(v) for v in self.reference))

    def __len__(self) -> int:
        return len(self.members)

    @property
    def objective_rows(self) -> np.ndarray:
        if not self.members:
            return np.empty((0, len(self.reference)))
        return np.array([obj for _, obj in self.members], dtype=float)


def pareto_filter(
    points: Sequence[tuple[DesignPoint, Sequence[float]]],
) -> list[tuple[DesignPoint, tuple[float, ...]]]:
    """Nondominated subset, sorted by first objective ascending.

    Exact duplicates (equal objective vectors) collapse to the first seen;
    ties in the first objective keep input order.
    """
    entries = [(p, tuple(float(v) for v in obj)) for p, obj in points]
    if not entries:
        return []
    keep = nondominated_mask([obj for _, obj in entries])
    return sorted((e for e, k in zip(entries, keep) if k), key=lambda m: m[1][0])


def _front(aset: ApproximationSet) -> tuple[np.ndarray, np.ndarray]:
    """The reference point, and the members strictly inside its box in
    lexicographic order (in 3-D only the mutually nondominated ones)."""
    ref = np.asarray(aset.reference, dtype=float)
    if not 1 <= ref.size <= MAX_OBJECTIVES:
        raise UnsupportedDimensionError(
            f"hypervolume supports 1..{MAX_OBJECTIVES} objectives, got {ref.size}")
    rows = aset.objective_rows
    rows = rows[(rows < ref).all(axis=1)]
    if ref.size == 3:
        rows = rows[nondominated_mask(rows)]
    return ref, rows[np.lexsort(rows.T[::-1])]


def _sweep(rows: np.ndarray, cand: np.ndarray, ref: np.ndarray) -> np.ndarray:
    """Staircase area of lexicographically sorted rows (first two columns)
    with each candidate merged in at its place, for all candidates at once:
    each total gets the one-candidate sweep's products in the same order. A
    +inf candidate is never merged and yields the area of ``rows`` alone."""
    r1, r2 = float(ref[0]), float(ref[1])
    c1, c2 = cand[:, 0], cand[:, 1]
    total, prev = np.zeros(len(cand)), np.full(len(cand), r2)
    slot = ((rows[:, None, 0] < c1)
            | ((rows[:, None, 0] == c1) & (rows[:, None, 1] < c2))).sum(axis=0)
    merged_here = np.bincount(slot, minlength=len(rows) + 1).tolist()
    steps = rows[:, :2].tolist()
    for i in range(len(steps) + 1):
        if merged_here[i]:
            take = (slot == i) & (c2 < prev)
            np.add(total, (r1 - c1) * (prev - c2), out=total, where=take)
            np.copyto(prev, c2, where=take)
        if i < len(steps):
            f1, f2 = steps[i]
            take = f2 < prev
            np.add(total, (r1 - f1) * (prev - f2), out=total, where=take)
            np.copyto(prev, f2, where=take)
    return total


def _volume(front: np.ndarray, cand: np.ndarray, ref: np.ndarray) -> np.ndarray:
    """Volume of a ``_front`` with each in-box candidate that no front row
    dominates or equals merged in; a +inf row gives the front's own volume.
    In 3-D it sums, in ascending order, one slice per level of the candidate
    and of the rows it does not dominate: the sweep of the rows at or below."""
    if ref.size == 1:
        return ref[0] - np.minimum(cand[:, 0], front[:, 0].min(initial=ref[0]))
    if ref.size == 2:
        return _sweep(front, cand, ref)
    beaten = (cand[None, :, :] <= front[:, None, :]).all(axis=2)
    levels = np.unique(np.concatenate([front[:, 2], cand[:, 2]]))
    levels = levels[levels < ref[2]]
    own = (cand[:, 2] == levels[:, None]) | (
        (front[:, None, 2] == levels[:, None, None]) & ~beaten).any(axis=1)
    tops, top = np.empty(own.shape), np.full(len(cand), ref[2])
    for k in reversed(range(len(levels))):
        tops[k] = top
        top = np.where(own[k], levels[k], top)
    total = np.zeros(len(cand))
    for k, z in enumerate(levels):
        merged = np.where(cand[:, 2:] <= z, cand[:, :2], np.inf)
        area = _sweep(front[front[:, 2] <= z], merged, ref)
        np.add(total, area * (tops[k] - z), out=total, where=own[k])
    return total


def hypervolume(aset: ApproximationSet) -> float:
    """Exact volume dominated by the set's members, bounded by the reference."""
    ref, front = _front(aset)
    return float(_volume(front, np.full((1, ref.size), np.inf), ref)[0])


def hypervolume_improvement(aset: ApproximationSet, candidate: Sequence[float]) -> float:
    """Volume gained by adding ``candidate`` (0 if dominated or outside the box)."""
    return HviCalculator(aset)(np.asarray(candidate, dtype=float))


class HviCalculator:
    """Hypervolume improvements over a fixed set, whose front is computed
    once. One objective row gives a float; an (m, B) array gives m values,
    each bit-identical to the one-row result."""

    def __init__(self, aset: ApproximationSet):
        self.aset = aset
        self.ref, self._front = _front(aset)
        self.n_obj = self.ref.size

    def __call__(self, candidates) -> float | np.ndarray:
        cand = np.asarray(candidates, dtype=float)
        if cand.shape[-1:] != (self.n_obj,):
            raise ValueError(f"candidates need {self.n_obj} objective values per row")
        C = cand.reshape(-1, self.n_obj)
        front, ref = self._front, self.ref
        # zero on or outside the box (NaN too) or where a member dominates or equals it
        zero = ~(C < ref).all(axis=1) | (front[:, None, :] <= C).all(axis=2).any(axis=0)
        with np.errstate(invalid="ignore", over="ignore"):
            if self.n_obj == 1:
                gain = front[:, 0].min(initial=ref[0]) - C[:, 0]
            else:
                # zeroed rows become +inf, never merged; the last +inf row
                # gives the set's own volume
                rows = np.where(zero[:, None], np.inf, C)
                totals = _volume(front, np.vstack([rows, np.full(ref.size, np.inf)]), ref)
                gain = totals[:-1] - totals[-1]
        out = np.where(zero | ~(gain > 0.0), 0.0, gain)
        return float(out[0]) if cand.ndim == 1 else out
