"""Monte Carlo estimation of trial operating characteristics.

Replicate seeds are derived from a counter, not drawn from a shared stream,
so each replicate's outcome depends only on (master seed, evaluation index,
replicate index), never on the order in which replicates run.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .domain import EVENT_ACCEPT, DesignPoint, Hypothesis, mc_variance_of

# A trial simulator: pure given the rng stream, returns True when the trial
# rejects its null hypothesis. One simulator serves every hypothesis: it
# receives the hypothesis as an argument. Which outcome an estimate counts is
# the hypothesis' event, applied by ``mc_estimate``.
TrialSimulator = Callable[[DesignPoint, Hypothesis, np.random.Generator], bool]

_MASK64 = (1 << 64) - 1


class SimulationError(RuntimeError):
    """A simulator raised; carries the replicate index and seed to reproduce."""

    def __init__(self, message: str, replicate_index: int, seed: int):
        super().__init__(message)
        self.replicate_index = replicate_index
        self.seed = seed


def _splitmix64(x: int) -> int:
    """One step of the SplitMix64 mix; a bijection on 64-bit integers."""
    x = (x + 0x9E3779B97F4A7C15) & _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return x ^ (x >> 31)


def derive_replicate_seed(master_seed: int, eval_index: int, replicate_index: int) -> int:
    """Counter-based 64-bit seed for one replicate of one evaluation.

    Injective over (eval_index, replicate_index) pairs with both indices
    below 2**32: the pair is packed into a 64-bit counter and passed through
    a bijective mixer keyed on the master seed.
    """
    if eval_index < 0 or replicate_index < 0:
        raise ValueError("indices must be non-negative")
    counter = ((eval_index & 0xFFFFFFFF) << 32) | (replicate_index & 0xFFFFFFFF)
    return _splitmix64(counter ^ _splitmix64(master_seed & _MASK64))


@dataclass(frozen=True)
class McEstimate:
    """A Monte Carlo rate estimate with its (clamped) sampling variance."""

    mean: float
    variance: float
    n_samples: int
    successes: int


def mc_estimate(
    sim: TrialSimulator,
    point: DesignPoint,
    hypothesis: Hypothesis,
    n_samples: int,
    seed: int,
    eval_index: int = 0,
    workers: int = 1,
) -> McEstimate:
    """Estimate the rate of ``hypothesis.event``: rejections, or for an
    "accept" hypothesis the replicates that ``sim`` reports as not rejecting.

    Runs ``n_samples`` independent replicates in index order, each with its
    own derived rng, and returns the event fraction with the clamped
    binomial variance. ``workers`` is kept only for its existing callers and
    does not change how replicates run (a thread pool over replicates
    measured no faster than one thread). A failing simulator raises
    SimulationError for the earliest failing replicate.
    """
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")

    successes = 0
    for i in range(n_samples):
        rep_seed = derive_replicate_seed(seed, eval_index, i)
        rng = np.random.default_rng(rep_seed)
        try:
            outcome = sim(point, hypothesis, rng)
        except SimulationError:
            raise
        except Exception as exc:
            raise SimulationError(
                f"simulator failed at replicate {i} (seed {rep_seed}): {exc}",
                replicate_index=i,
                seed=rep_seed,
            ) from exc
        successes += bool(outcome)
    if hypothesis.event == EVENT_ACCEPT:
        successes = n_samples - successes

    return McEstimate(
        mean=successes / n_samples,
        variance=mc_variance_of(successes, n_samples),
        n_samples=n_samples,
        successes=successes,
    )
