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

The sweep runs for a whole batch of candidates at once: each candidate's
staircase is one row of an array, and its products are added column by
column, left to right, as the one-candidate loop adds them. ``sum`` or
``np.add.reduce`` along the row would add them pairwise, which rounds
differently once a staircase has more than a few steps.

An ``ApproximationSet`` builds once, on first use, what every batch of
candidates against it shares, and the caches rest on these facts:

- Each row's sweep, and its left-to-right accumulate, reads only that row
  and the set, so a row's total does not depend on the other rows of the
  batch. The 3-D slices a row adds are its own levels and those of the
  members it does not dominate, whatever levels the other rows bring.
- Hence the set's own volume, swept once with a lone +inf row and cached,
  is bit for bit the total of the +inf row that each batch used to append;
  ``hypervolume`` returns the same cached value.
- The 2-D staircase is cached as complex numbers x + iy, the float pairs
  reinterpreted without rounding, between copies of the reference point.
  numpy orders complex numbers lexicographically, as the sweep orders rows,
  so a binary search places each candidate and one gather builds its
  staircase. Candidates reaching the sweep are never NaN: rows that gain
  nothing become +inf first.
- The members are also cached dimension-first, (B, k, 1) and C-ordered:
  the dominance test then reduces over the leading axis, which numpy does
  several times faster than over a short trailing one.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from .domain import MAX_OBJECTIVES, DesignPoint


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

    @cached_property
    def _front(self) -> tuple[np.ndarray, np.ndarray]:
        """The reference point, and the members strictly inside its box in
        lexicographic order (in 3-D only the mutually nondominated ones).
        Built once per set; both arrays are read-only."""
        ref = np.array(self.reference, dtype=float)
        if not 1 <= ref.size <= MAX_OBJECTIVES:
            raise UnsupportedDimensionError(
                f"hypervolume supports 1..{MAX_OBJECTIVES} objectives, got {ref.size}")
        rows = self.objective_rows
        rows = rows[(rows < ref).all(axis=1)]
        if ref.size == 3:
            rows = rows[nondominated_mask(rows)]
        rows = rows[np.lexsort(rows.T[::-1])]
        ref.flags.writeable = rows.flags.writeable = False
        return ref, rows

    @cached_property
    def _columns(self) -> np.ndarray:
        """The front dimension-first, (B, k, 1): C-ordered and read-only."""
        front = self._front[1].T[:, :, None].copy()
        front.flags.writeable = False
        return front

    @cached_property
    def _stairs(self) -> np.ndarray:
        """The front's ``_stairs_of``, which the 2-D sweep indexes."""
        ref, front = self._front
        return _stairs_of(front, ref)

    @cached_property
    def _volume(self) -> float:
        """The volume the set dominates: its ``_volume_with`` a +inf row."""
        return float(_volume_with(self, np.full((1, len(self.reference)), np.inf))[0])


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


def _stairs_of(rows: np.ndarray, ref: np.ndarray) -> np.ndarray:
    """The first two objectives of lexicographically sorted rows as complex
    numbers x + iy, between a leading and a trailing copy of the reference
    point's: (k + 2,), read-only. The bits are the floats' own, and numpy
    orders complex numbers lexicographically, as the rows are."""
    points = np.empty((len(rows) + 2, 2))
    points[0] = points[-1] = ref[:2]
    points[1:-1] = rows[:, :2]
    stairs = points.view(complex)[:, 0]
    stairs.flags.writeable = False
    return stairs


def _sweep(stairs: np.ndarray, cand: np.ndarray, ref: np.ndarray) -> np.ndarray:
    """Staircase area of the rows of ``_stairs_of`` with each candidate
    merged in at its place, for all candidates at once: each total gets the
    one-candidate sweep's products in the same order. A +inf candidate is
    never merged and yields the area of the rows alone. The candidates are
    rows of two or more non-NaN objectives."""
    r1, k = ref[0], len(stairs) - 2
    c = np.ascontiguousarray(cand[:, :2]).view(complex)
    # the rows lexicographically below each candidate
    slot = np.searchsorted(stairs[1:-1], c)
    # each candidate's staircase, (m, k + 2): the leading reference point,
    # the rows before its slot, the candidate, then the rest (the trailing
    # reference point is never taken)
    pos = np.arange(-1, k + 1)
    steps = stairs[pos + (pos <= slot)]
    steps[pos == slot] = c[:, 0]
    f1, f2 = steps.real[:, 1:], steps.imag[:, 1:]
    # the lowest step so far, from r2; a step adds area only below it
    prev = np.fmin.accumulate(steps.imag[:, :-1], axis=1)
    terms = np.where(f2 < prev, (r1 - f1) * (prev - f2), 0.0)
    # in order, left to right: a pairwise sum would round differently
    return np.add.accumulate(terms, axis=1)[:, -1]


def _volume_with(aset: ApproximationSet, cand: np.ndarray) -> np.ndarray:
    """Volume of the set's ``_front`` with each in-box candidate that no front
    row dominates or equals merged in; a +inf row gives the front's own
    volume. In 3-D it sums, in ascending order, one slice per level of the
    candidate and of the rows it does not dominate: the sweep of the rows at
    or below."""
    ref, front = aset._front
    if ref.size == 1:
        return ref[0] - np.minimum(cand[:, 0], front[:, 0].min(initial=ref[0]))
    if ref.size == 2:
        return _sweep(aset._stairs, cand, ref)
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
        area = _sweep(_stairs_of(front[front[:, 2] <= z], ref), merged, ref)
        np.add(total, area * (tops[k] - z), out=total, where=own[k])
    return total


def hypervolume(aset: ApproximationSet) -> float:
    """Exact volume dominated by the set's members, bounded by the reference."""
    return aset._volume


class HviCalculator:
    """Hypervolume improvements over a fixed set, on the set's cached front
    and volume: calling it with an (m, B) array of candidate objective rows
    returns the (m,) volumes each would add alone, 0 for a candidate that a
    member dominates or equals or that is not strictly inside the reference
    box. Each value is bit-identical to that of a one-row call."""

    def __init__(self, aset: ApproximationSet):
        self.aset = aset
        self.ref, self._front = aset._front
        self.n_obj = self.ref.size

    def __call__(self, candidates: np.ndarray) -> np.ndarray:
        C = np.asarray(candidates, dtype=float)
        if C.ndim != 2 or C.shape[1] != self.n_obj:
            raise ValueError(f"candidates must be rows (m, {self.n_obj}), "
                             f"got shape {C.shape}")
        front, ref = self._front, self.ref
        # zero on or outside the box (NaN too) or where a member dominates or equals it
        covered = (self.aset._columns <= C.T[:, None, :]).all(axis=0).any(axis=0)
        zero = ~(C < ref).all(axis=1) | covered
        if self.n_obj == 1:
            gain = front[:, 0].min(initial=ref[0]) - C[:, 0]
        else:
            # zeroed rows become +inf, never merged
            rows = np.where(zero[:, None], np.inf, C)
            gain = _volume_with(self.aset, rows) - self.aset._volume
        return np.where(zero | ~(gain > 0.0), 0.0, gain)
