"""Acquisition machinery: feasibility quantiles, the noisy-evaluation
predictive update, constrained hypervolume expected improvement, and the
particle-swarm inner maximizer."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

import numpy as np
from scipy.special import ndtr, ndtri

from .domain import Constraint, DesignSpace, ObjectiveSpec, _refuse
from .gp import GpModel, gp_predict_many
from .pareto import ApproximationSet, HviCalculator


def feasibility_quantile(m: float, s2: float, p: float) -> float:
    """Upper 100*p% quantile of N(m, s2): m + Phi^-1(p) * s. Accepts scalars
    or arrays."""
    return m + ndtri(p) * np.sqrt(s2)


def quantile_update(m, s2, omega2_plan, p):
    """Predictive distribution of the post-evaluation feasibility quantile.

    For a planned evaluation with Monte Carlo variance ``omega2_plan`` the
    revised quantile is normal with
    ``m+ = m + Phi^-1(p) * sqrt(omega2 * s2 / (omega2 + s2))`` and
    ``s+^2 = s2^2 / (omega2 + s2)``. Accepts scalars or arrays.
    """
    m = np.asarray(m, dtype=float)
    s2 = np.asarray(s2, dtype=float)
    omega2 = np.asarray(omega2_plan, dtype=float)
    denom = omega2 + s2
    pos = denom > 0
    safe = np.where(pos, denom, 1.0)
    s2_plus = np.where(pos, s2 * s2 / safe, 0.0)
    m_plus = m + ndtri(p) * np.sqrt(np.where(pos, omega2 * s2 / safe, 0.0))
    if m_plus.ndim == 0:
        return float(m_plus), float(s2_plus)
    return m_plus, s2_plus


def prob_feasible_after(m_plus, s2_plus):
    """Phi(-m+ / s+); degenerates to an indicator when s+^2 = 0."""
    m_plus = np.asarray(m_plus, dtype=float)
    s = np.sqrt(np.asarray(s2_plus, dtype=float))
    pos = s > 0
    # the divisor is s or 1, never 0: no division warning to silence
    out = np.where(pos, ndtr(-m_plus / np.where(pos, s, 1.0)), m_plus <= 0)
    return float(out) if out.ndim == 0 else out


def expected_improvement_batch(
    coords: np.ndarray,
    models: Mapping[str, GpModel],
    constraints: Sequence[Constraint],
    current: ApproximationSet,
    objectives: ObjectiveSpec,
    planned_n: int,
    space: DesignSpace,
) -> np.ndarray:
    """EI for each row of the (m, D) float array ``coords`` (raw design
    coordinates).

    EI(x) = [H(A*) - H(A)] * prod_j Phi(-m_{j,+} / s_{j,+}), where the
    per-constraint planned-evaluation variance uses the GP mean mapped back
    to the rate scale and clamped away from {0, 1}. Every factor is computed
    for every row, each row on its own, so a row where the probability is 0
    gets 0 whatever the others are.
    """
    unit = space.normalize(coords)
    low = 1.0 / (2.0 * planned_n)
    prob = 1.0
    for con in constraints:
        mean, var = gp_predict_many(models[con.label], unit)
        rate = np.clip(mean + con.nominal, low, 1.0 - low)
        omega2 = rate * (1.0 - rate) / planned_n
        prob = prob * prob_feasible_after(*quantile_update(mean, var, omega2, con.confidence))
    gain = HviCalculator(current)(objectives(coords))
    return np.where(prob <= 0.0, 0.0, gain * prob)


@dataclass(frozen=True)
class PsoConfig:
    """Global-best particle swarm settings (constriction-style defaults)."""

    swarm_size: int = 40
    iterations: int = 200
    inertia: float = 0.729
    cognitive: float = 1.49445
    social: float = 1.49445
    seed: int = 0

    def __post_init__(self):
        _refuse([problem for problem, wrong in (
            ("swarm_size must be >= 2", self.swarm_size < 2),
            ("iterations must be >= 1", self.iterations < 1),
            ("inertia must be in (0, 1)", not 0.0 < self.inertia < 1.0),
            ("cognitive and social weights must be positive",
             self.cognitive <= 0 or self.social <= 0),
        ) if wrong])


# velocities are clamped to this fraction of each dimension's range
_VELOCITY_CLAMP = 0.5


def pso_maximize(
    f: Callable[[np.ndarray], np.ndarray],
    bounds: DesignSpace,
    config: PsoConfig | None = None,
    seed: int | None = None,
) -> tuple[np.ndarray, float]:
    """Maximize ``f`` over the box with synchronous global-best PSO.

    ``f`` takes an (m, D) array of positions and returns m values. Integer
    dimensions are treated as continuous; positions are clipped to bounds.
    Deterministic given the seed; returns the best position visited and its
    value.
    """
    cfg = config or PsoConfig()
    rng = np.random.default_rng(cfg.seed if seed is None else seed)
    lower, upper, span = bounds.lower, bounds.upper, bounds.span
    vmax = _VELOCITY_CLAMP * span
    vmin = -vmax
    m, d = cfg.swarm_size, bounds.ndim

    pos = lower + rng.random((m, d)) * span
    vel = (rng.random((m, d)) * 2.0 - 1.0) * vmax
    val = np.asarray(f(pos), dtype=float)
    pbest = pos.copy()
    pbest_val = val.copy()
    g = int(np.argmax(val))
    gbest = pos[g].copy()
    gbest_val = float(val[g])

    for _ in range(cfg.iterations):
        r1 = rng.random((m, d))
        r2 = rng.random((m, d))
        vel = (cfg.inertia * vel
               + cfg.cognitive * r1 * (pbest - pos)
               + cfg.social * r2 * (gbest - pos))
        np.minimum(np.maximum(vel, vmin, out=vel), vmax, out=vel)
        pos = pos + vel
        np.minimum(np.maximum(pos, lower, out=pos), upper, out=pos)
        val = np.asarray(f(pos), dtype=float)
        improved = val > pbest_val
        pbest[improved] = pos[improved]
        pbest_val[improved] = val[improved]
        g = int(np.argmax(pbest_val))
        if pbest_val[g] > gbest_val:
            gbest_val = float(pbest_val[g])
            gbest = pbest[g].copy()

    return gbest, gbest_val
