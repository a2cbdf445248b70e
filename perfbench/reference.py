"""Reference computations made apart from the program under test.

Nothing here calls trialopt's hypervolume, Pareto or optimiser code. The
dominated volume is found by brute force on the grid that the points'
coordinates span, and the true criterion-7 Pareto front by a per-k binary
search on the ``cluster_rct`` power oracle. Run this file to print HV* and
the front.
"""

from __future__ import annotations

import itertools
import math

import numpy as np
from scipy.stats import binom

# Criterion-7 problem: cluster_rct, n in [100, 500], k in [3, 30], objectives
# (2n, 3k), type II error <= 0.1, reference point (1100, 95).
CLUSTER_HP = {"beta1": 1.10, "sigma_t2": 0.19, "sigma_d2": 0.37,
              "sigma_w2": 3.29, "alpha": 0.05}
CLUSTER_N = (100, 500)
CLUSTER_K = (3, 30)
CLUSTER_REF = (1100.0, 95.0)
CLUSTER_BETA = 0.1


def dominated_volume(rows, ref) -> float:
    """Volume of the union of the boxes [row, ref], for any number of objectives.

    Brute force: every cell of the grid spanned by the rows' coordinates and
    the reference point is counted once if some row weakly dominates its
    lower corner. Rows outside the reference box add nothing.
    """
    ref = np.asarray(ref, dtype=float)
    rows = np.asarray(rows, dtype=float).reshape(-1, ref.size)
    rows = rows[np.all(rows < ref, axis=1)]
    if rows.shape[0] == 0:
        return 0.0
    axes = [np.unique(np.append(rows[:, d], ref[d])) for d in range(ref.size)]
    total = 0.0
    for cell in itertools.product(*(range(len(a) - 1) for a in axes)):
        corner = np.array([axes[d][i] for d, i in enumerate(cell)])
        if np.any(np.all(rows <= corner, axis=1)):
            total += math.prod(axes[d][i + 1] - axes[d][i] for d, i in enumerate(cell))
    return total


def nondominated(rows) -> bool:
    """True when no row weakly dominates another distinct row (minimisation)."""
    rows = [tuple(r) for r in rows]
    for a, b in itertools.permutations(range(len(rows)), 2):
        if rows[a] != rows[b] and all(x <= y for x, y in zip(rows[a], rows[b])):
            return False
    return len(set(rows)) == len(rows)


def cluster_type2(n: float, k: float) -> float:
    """Oracle type II error of the criterion-7 design (n, k)."""
    from trialopt.simlib import get_scenario

    return 1.0 - get_scenario("cluster_rct").rejection_rate({"n": n, "k": k}, CLUSTER_HP)


def cluster_true_front(beta: float = CLUSTER_BETA) -> list[tuple[int, int]]:
    """Nondominated (n, k) designs with oracle type II <= beta.

    Power rises with n at fixed k, so for each k the smallest feasible n is
    found by binary search over the integers; larger k with no smaller n is
    dominated and dropped.
    """
    lo_n, hi_n = CLUSTER_N
    candidates = []
    for k in range(CLUSTER_K[0], CLUSTER_K[1] + 1):
        if cluster_type2(hi_n, k) > beta:
            continue
        lo, hi = lo_n, hi_n
        while lo < hi:
            mid = (lo + hi) // 2
            if cluster_type2(mid, k) <= beta:
                hi = mid
            else:
                lo = mid + 1
        candidates.append((lo, k))
    front = []
    for n, k in candidates:  # ascending k: keep only strictly smaller n
        if not front or n < front[-1][0]:
            front.append((n, k))
    return front


def cluster_objectives(n: float, k: float) -> tuple[float, float]:
    return (2.0 * n, 3.0 * k)


def cluster_hv_star() -> float:
    """Hypervolume of the true criterion-7 front at the reference point."""
    return dominated_volume([cluster_objectives(n, k) for n, k in cluster_true_front()],
                            CLUSTER_REF)


def within_band(successes: int, n: int, p: float, z: float) -> bool:
    """|successes/n - p| < z binomial standard errors of the oracle rate p."""
    return abs(successes / n - p) < z * math.sqrt(p * (1.0 - p) / n)


def band_false_alarm(n: int, p: float, z: float) -> float:
    """Exact chance that a correct estimate of rate p from n replicates
    falls outside ``within_band``."""
    half = z * math.sqrt(p * (1.0 - p) / n) * n
    inside_lo = math.floor(n * p - half) + 1   # smallest count inside
    inside_hi = math.ceil(n * p + half) - 1    # largest count inside
    return float(binom.cdf(inside_lo - 1, n, p) + binom.sf(inside_hi, n, p))


if __name__ == "__main__":
    front = cluster_true_front()
    print("criterion-7 true front (n, k):", front)
    print("HV* at", CLUSTER_REF, "=", cluster_hv_star())
