"""Pareto dominance, approximation sets and exact dominated hypervolume.

All objectives are minimized. Exact hypervolume is implemented for one to
three objectives: a sorted sweep in 2-D and a dimension sweep over slices in
3-D. Members that do not strictly dominate the reference point are kept in
the set but contribute zero volume.
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


@dataclass(frozen=True)
class ApproximationSet:
    """Mutually nondominated evaluated solutions plus the reference point."""

    members: tuple[tuple[DesignPoint, tuple[float, ...]], ...]
    reference: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "members", tuple(
            (p, tuple(float(v) for v in obj)) for p, obj in self.members
        ))
        object.__setattr__(
            self, "reference", tuple(float(v) for v in self.reference)
        )

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
    kept: list[tuple[DesignPoint, tuple[float, ...]]] = []
    seen: set[tuple[float, ...]] = set()
    for i, (p, obj) in enumerate(entries):
        if obj in seen:
            continue
        dominated = False
        for j, (_, other) in enumerate(entries):
            if j != i and dominates(other, obj):
                dominated = True
                break
        if not dominated:
            kept.append((p, obj))
            seen.add(obj)
    kept.sort(key=lambda m: m[1][0])
    return kept


def _inside(rows: np.ndarray, ref: np.ndarray) -> np.ndarray:
    """Rows strictly dominating the reference point (positive-volume boxes)."""
    if rows.size == 0:
        return rows
    return rows[np.all(rows < ref, axis=1)]


def _hv2(rows: np.ndarray, ref: np.ndarray) -> float:
    """2-D hypervolume of mutually nondominated in-box rows by sorted sweep."""
    if rows.shape[0] == 0:
        return 0.0
    order = np.argsort(rows[:, 0], kind="stable")
    rows = rows[order]
    total = 0.0
    prev_f2 = ref[1]
    for f1, f2 in rows:
        if f2 < prev_f2:
            total += (ref[0] - f1) * (prev_f2 - f2)
            prev_f2 = f2
    return total


def _nondominated_rows(rows: np.ndarray) -> np.ndarray:
    keep = []
    for i in range(rows.shape[0]):
        dominated = False
        for j in range(rows.shape[0]):
            if j != i and dominates(rows[j], rows[i]):
                dominated = True
                break
            if j < i and np.array_equal(rows[j], rows[i]):
                dominated = True
                break
        if not dominated:
            keep.append(i)
    return rows[keep]


def _hv3(rows: np.ndarray, ref: np.ndarray) -> float:
    """3-D hypervolume by sweeping slices along the third objective."""
    if rows.shape[0] == 0:
        return 0.0
    order = np.argsort(rows[:, 2], kind="stable")
    rows = rows[order]
    levels = rows[:, 2]
    total = 0.0
    for i in range(rows.shape[0]):
        z_lo = levels[i]
        z_hi = levels[i + 1] if i + 1 < rows.shape[0] else ref[2]
        if z_hi <= z_lo:
            continue
        active = _nondominated_rows(rows[: i + 1, :2])
        total += _hv2(active, ref[:2]) * (z_hi - z_lo)
    return total


def hypervolume(aset: ApproximationSet) -> float:
    """Exact volume dominated by the set's members, bounded by the reference."""
    n_obj = len(aset.reference)
    if not 1 <= n_obj <= MAX_OBJECTIVES:
        raise UnsupportedDimensionError(
            f"hypervolume supports 1..{MAX_OBJECTIVES} objectives, got {n_obj}"
        )
    ref = np.asarray(aset.reference, dtype=float)
    rows = _inside(aset.objective_rows, ref)
    if rows.shape[0] == 0:
        return 0.0
    if n_obj == 1:
        return float(ref[0] - rows.min())
    if n_obj == 2:
        return float(_hv2(rows, ref))
    return float(_hv3(rows, ref))


def _hv_rows(rows: np.ndarray, ref: np.ndarray) -> float:
    """Dominated volume of arbitrary rows (dominated entries add nothing)."""
    rows = _inside(rows, ref)
    if rows.shape[0] == 0:
        return 0.0
    if ref.size == 1:
        return float(ref[0] - rows.min())
    if ref.size == 2:
        return float(_hv2(_nondominated_rows(rows), ref))
    return float(_hv3(_nondominated_rows(rows), ref))


def hypervolume_improvement(
    aset: ApproximationSet, candidate: Sequence[float]
) -> float:
    """Hypervolume gained by adding ``candidate`` to the set (0 if dominated
    or outside the reference box)."""
    cand = np.asarray(candidate, dtype=float)
    ref = np.asarray(aset.reference, dtype=float)
    if not 1 <= ref.size <= MAX_OBJECTIVES:
        raise UnsupportedDimensionError(
            f"hypervolume supports 1..{MAX_OBJECTIVES} objectives, got {ref.size}"
        )
    if not np.all(cand < ref):
        return 0.0
    for _, obj in aset.members:
        if tuple(cand) == obj or dominates(obj, cand):
            return 0.0
    rows = aset.objective_rows
    base = _hv_rows(rows, ref)
    new = _hv_rows(np.vstack([rows, cand[None, :]]), ref)
    return max(0.0, new - base)


class HviCalculator:
    """Repeated hypervolume-improvement queries against a fixed set.

    Precomputes the in-box staircase once so the inner acquisition search can
    score thousands of candidates cheaply; agrees with
    ``hypervolume_improvement`` everywhere. Called with one objective row it
    returns a float; called with an (m, B) array of m candidates it returns m
    values, each bit-identical to the one-row result.
    """

    def __init__(self, aset: ApproximationSet):
        self.aset = aset
        self.ref = tuple(float(v) for v in aset.reference)
        self.n_obj = len(self.ref)
        rows = [obj for _, obj in aset.members]
        self._member_rows = np.array(rows, dtype=float).reshape(-1, self.n_obj)
        inside = [r for r in rows if all(v < b for v, b in zip(r, self.ref))]
        inside.sort()
        self._inside = np.array(inside, dtype=float).reshape(-1, self.n_obj)
        if self.n_obj == 1:
            self._best = inside[0][0] if inside else self.ref[0]

    def _sweep2(self, cand: np.ndarray) -> np.ndarray:
        """Staircase sweep of the in-box rows with each candidate merged in.

        Replays the sweep of ``sorted(inside + [c])`` for every candidate row
        ``c`` at once: each candidate's total gets the same products, added in
        the same order, as the one-candidate sweep.
        """
        inside = self._inside
        r1, r2 = self.ref
        c1, c2 = cand[:, 0], cand[:, 1]
        total = np.zeros(cand.shape[0])
        prev = np.full(cand.shape[0], r2)
        # each candidate's place in the lexicographic order (no in-box row
        # equals a candidate whose improvement is kept)
        slot = ((inside[:, None, 0] < c1)
                | ((inside[:, None, 0] == c1) & (inside[:, None, 1] < c2))).sum(axis=0)
        merged_here = np.bincount(slot, minlength=len(inside) + 1).tolist()
        rows = inside.tolist()
        for i in range(len(rows) + 1):
            if merged_here[i]:
                take = (slot == i) & (c2 < prev)
                np.add(total, (r1 - c1) * (prev - c2), out=total, where=take)
                np.copyto(prev, c2, where=take)
            if i < len(rows):
                f1, f2 = rows[i]
                take = f2 < prev
                np.add(total, (r1 - f1) * (prev - f2), out=total, where=take)
                np.copyto(prev, f2, where=take)
        return total

    def __call__(self, candidates) -> float | np.ndarray:
        cand = np.asarray(candidates, dtype=float)
        C = cand.reshape(-1, self.n_obj)
        ref = np.asarray(self.ref)
        # zero for candidates on or outside the box and for candidates that a
        # member dominates or equals
        zero = (C >= ref).any(axis=1)
        zero |= (self._member_rows[:, None, :] <= C).all(axis=2).any(axis=0)
        with np.errstate(invalid="ignore", over="ignore"):
            if self.n_obj == 1:
                gain = self._best - C[:, 0]
            elif self.n_obj == 2:
                # the last row, a candidate at +inf, is never merged in: its
                # total is the set's own volume
                totals = self._sweep2(np.vstack([C, [np.inf, np.inf]]))
                gain = totals[:-1] - totals[-1]
            else:
                gain = np.array([
                    0.0 if z else hypervolume_improvement(self.aset, tuple(c))
                    for z, c in zip(zero, C.tolist())
                ])
        out = np.where(zero | ~(gain > 0.0), 0.0, gain)
        return float(out[0]) if cand.ndim == 1 else out
