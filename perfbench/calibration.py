"""A fixed calibration kernel that measures the shared machine's speed.

The machine's speed changes within seconds: the same optimiser iteration
takes 0.27 s in one round and 0.50 s in the next of the same run. The
untraced rounds time this kernel before every step (each optimiser
iteration, each Monte Carlo estimate) and take it out of the round's wall
time; the end-to-end times are then rescaled to the speed at which the
kernel takes REFERENCE_S. The kernel has the shape of the program's two
kinds of work, a small Gaussian-process likelihood evaluation and
interpreted per-candidate dominance tests, but does not call ``trialopt``,
so a change to the program cannot change it.
"""

from __future__ import annotations

import time

import numpy as np
from scipy.linalg import cholesky, solve_triangular

# Kernel time taken as the reference speed; rescaled figures read as the
# seconds the work takes when one kernel call takes this long.
REFERENCE_S = 0.010

_RNG = np.random.default_rng(20190821)
_X = _RNG.random((45, 2))
_Y = np.sin(3.0 * _X[:, 0]) + _X[:, 1] ** 2
_NOISE = np.diag(np.full(45, 1e-3))
_LENGTHS = np.array([0.3, 0.5])
_FRONT = sorted((float(a), float(1.0 - a ** 0.5)) for a in _RNG.random(12))
_CANDIDATES = [(float(a), float(b)) for a, b in _RNG.random((400, 2))]


def _likelihood_part() -> float:
    """Squared-exponential covariance, Cholesky factor and triangular solve
    of a 45-point Gaussian process: the shape of one likelihood evaluation."""
    acc = 0.0
    for _ in range(30):
        d2 = ((_X[:, None, :] - _X[None, :, :]) / _LENGTHS) ** 2
        L = cholesky(1.3 * np.exp(-d2.sum(axis=-1)) + _NOISE, lower=True)
        z = solve_triangular(L, _Y, lower=True)
        acc += float(-0.5 * z @ z - np.log(np.diag(L)).sum())
    return acc


def _interpreted_part() -> float:
    """Dominance tests and a staircase sweep in plain Python over small
    tuples: the shape of the per-candidate acquisition work."""
    acc = 0.0
    for cand in _CANDIDATES:
        if any(all(f <= c for f, c in zip(row, cand)) for row in _FRONT):
            continue
        prev = 1.0
        for f1, f2 in sorted(_FRONT + [cand]):
            if f2 < prev:
                acc += (1.0 - f1) * (prev - f2)
                prev = f2
    return acc


def sample() -> float:
    """Seconds one kernel call takes now."""
    start = time.perf_counter()
    _likelihood_part()
    _interpreted_part()
    return time.perf_counter() - start


def warm_up(calls: int = 20) -> None:
    """First calls pay for caches and lazy imports; the figures should not."""
    for _ in range(calls):
        sample()


def speed_factor(timed) -> float:
    """REFERENCE_S over the kernel time during a round, each kernel sample
    weighted by the duration of the step it was taken next to.

    ``timed`` holds (step seconds, kernel seconds) pairs, at least one.
    """
    kernel_s = sum(d * c for d, c in timed) / sum(d for d, _ in timed)
    return REFERENCE_S / kernel_s
