"""Monte Carlo estimation of trial operating characteristics.

Replicate seeds are derived from a counter, not drawn from a shared stream,
so each replicate's outcome depends only on (master seed, evaluation index,
replicate index), never on the order in which replicates run.

Replicate ``i`` draws exactly the stream of ``np.random.default_rng(seed_i)``
with ``seed_i = derive_replicate_seed(master, eval_index, i)``, but
``mc_estimate`` builds one generator per call and sets its state before each
replicate: the state that ``default_rng(seed_i)`` would start from is
computed for a chunk of replicates at once, in array arithmetic that follows
numpy's ``SeedSequence`` and ``PCG64`` seeding step for step.

Simulation is batch-first. A simulator is called once per estimate and
returns the ``Batch`` of its design point: each replicate's draws go into
one row of a block, and the analysis decides the whole block in one array
pass, so no per-replicate Python arithmetic is left beyond setting the state
and drawing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .domain import EVENT_ACCEPT, DesignPoint, Hypothesis, mc_variance_of

_MASK64 = (1 << 64) - 1
_MASK128 = (1 << 128) - 1

# replicates whose generator states are derived together, and the most rows
# a block holds; with _BLOCK_DOUBLES this bounds the memory an estimate holds
# whatever its sample count and row size
_CHUNK = 1024
_BLOCK_DOUBLES = 16_384

# numpy's SeedSequence hash constants (numpy/random/bit_generator.pyx)
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
# PCG64's 128-bit LCG multiplier (numpy/random/src/pcg64/pcg64.h)
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645


class SimulationError(RuntimeError):
    """A simulator raised; carries the replicate index and seed to reproduce."""

    def __init__(self, message: str, replicate_index: int, seed: int):
        super().__init__(message)
        self.replicate_index = replicate_index
        self.seed = seed


@dataclass(frozen=True)
class Batch:
    """What a simulator gives for one design point under one hypothesis:
    ``fill(rng, row)`` draws one replicate into a float64 row of ``shape``,
    and ``decide(rows)`` gives the rejection indicators of a block of rows.
    ``simlib.Scenario`` states what each must and must not do.
    """

    shape: tuple[int, ...]
    fill: Callable[[np.random.Generator, np.ndarray], None]
    decide: Callable[[np.ndarray], np.ndarray]


# The one simulator contract: called once per estimate, it returns the Batch
# of the design point under the hypothesis; which outcome an estimate counts
# is the hypothesis' event, applied by ``mc_estimate``.
TrialSimulator = Callable[[DesignPoint, Hypothesis], Batch]


def _splitmix64(x):
    """One step of the SplitMix64 mix; a bijection on 64-bit integers.

    Takes a Python int or a uint64 array (whose arithmetic wraps, so the
    masks leave it unchanged) and gives the same values for both.
    """
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


def _replicate_seeds(master_seed: int, eval_index: int, start: int, stop: int) -> np.ndarray:
    """``derive_replicate_seed`` for replicates ``start`` to ``stop - 1``, as uint64."""
    if eval_index < 0:
        raise ValueError("indices must be non-negative")
    replicates = np.arange(start, stop, dtype=np.uint64) & 0xFFFFFFFF
    counter = ((eval_index & 0xFFFFFFFF) << 32) | replicates
    return _splitmix64(counter ^ _splitmix64(master_seed & _MASK64))


def _pcg64_states(seeds: np.ndarray) -> list[tuple[int, int]]:
    """The PCG64 ``(state, inc)`` that ``np.random.default_rng(seed)`` starts
    from, for each uint64 seed.

    ``SeedSequence(seed)`` hashes the seed's 32-bit words (two, the high one
    zero for seeds below 2**32, which hashes as the one-word form) into a
    pool of four, and ``generate_state(4, uint64)`` hashes the pool into
    ``initstate`` (words 0-1) and ``initseq`` (words 2-3); PCG64 then sets
    ``inc = initseq << 1 | 1`` and steps the LCG from 0, adds ``initstate``
    and steps again.
    """
    hash_const = _INIT_A

    def hashmix(value):
        nonlocal hash_const
        value = value ^ hash_const
        hash_const = (hash_const * _MULT_A) & 0xFFFFFFFF
        value = value * hash_const
        return value ^ (value >> 16)

    def mix(x, y):
        result = _MIX_MULT_L * x - _MIX_MULT_R * y
        return result ^ (result >> 16)

    words = [(seeds & 0xFFFFFFFF).astype(np.uint32), (seeds >> 32).astype(np.uint32)]
    words += [np.zeros(len(seeds), dtype=np.uint32)] * 2
    pool = [hashmix(w) for w in words]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))

    hash_const = _INIT_B
    out = []
    for i in range(8):
        value = pool[i % 4] ^ hash_const
        hash_const = (hash_const * _MULT_B) & 0xFFFFFFFF
        value = value * hash_const
        out.append((value ^ (value >> 16)).astype(np.uint64))
    # 64-bit words are little-endian pairs of 32-bit words; one list per word
    # holds less memory than a small list per seed
    state_words = [(out[2 * i] | (out[2 * i + 1] << 32)).tolist() for i in range(4)]

    states = []
    for init_hi, init_lo, seq_hi, seq_lo in zip(*state_words):
        inc = ((seq_hi << 65) | (seq_lo << 1) | 1) & _MASK128
        state = ((inc + ((init_hi << 64) | init_lo)) * _PCG_MULT + inc) & _MASK128
        states.append((state, inc))
    return states


@dataclass(frozen=True)
class McEstimate:
    """A Monte Carlo rate estimate with its (clamped) sampling variance."""

    mean: float
    variance: float
    n_samples: int
    successes: int


def _failure(exc: Exception, seed: int, eval_index: int, i: int) -> SimulationError:
    rep_seed = derive_replicate_seed(seed, eval_index, i)
    return SimulationError(
        f"simulator failed at replicate {i} (seed {rep_seed}): {exc}",
        replicate_index=i,
        seed=rep_seed,
    )


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

    Runs ``n_samples`` independent replicates in index order on one
    generator, reset before each replicate to the state of
    ``np.random.default_rng(derive_replicate_seed(seed, eval_index, i))``,
    and returns the event fraction with the clamped binomial variance. The
    Batch that ``sim(point, hypothesis)`` returns fills one row per
    replicate and decides a block of at most ``_CHUNK`` rows and
    ``_BLOCK_DOUBLES`` values at a time. ``workers`` is kept only for its
    existing callers and does not change how replicates run (a thread pool
    over replicates measured no faster than one thread). A failing simulator
    raises SimulationError for the earliest failing replicate, with the seed
    that reproduces it: a failing call of ``sim``, or one that returns no
    Batch, is replicate 0's, and a failing ``decide`` is reported at the
    first replicate of its block.
    """
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")

    try:
        batch = sim(point, hypothesis)
        if not isinstance(batch, Batch):
            raise TypeError(f"a simulator must return a Batch, not {type(batch).__name__}")
    except Exception as exc:
        raise _failure(exc, seed, eval_index, 0) from exc
    fill = batch.fill
    rows = max(1, min(_CHUNK, _BLOCK_DOUBLES // math.prod(batch.shape)))
    block = np.empty((rows, *batch.shape))
    bitgen = np.random.PCG64()
    rng = np.random.Generator(bitgen)
    successes = 0
    filled = 0  # rows of the block drawn and not yet decided
    for start in range(0, n_samples, _CHUNK):
        # unnamed, so a chunk's states are freed before the next chunk's are derived
        for i, (state, inc) in enumerate(_pcg64_states(_replicate_seeds(
                seed, eval_index, start, min(start + _CHUNK, n_samples))), start):
            bitgen.state = {"bit_generator": "PCG64",
                            "state": {"state": state, "inc": inc},
                            "has_uint32": 0, "uinteger": 0}
            try:
                fill(rng, block[filled])
            except SimulationError:
                raise
            except Exception as exc:
                raise _failure(exc, seed, eval_index, i) from exc
            filled += 1
            if filled == rows or i == n_samples - 1:
                try:
                    decided = batch.decide(block[:filled])
                except Exception as exc:
                    raise _failure(exc, seed, eval_index, i + 1 - filled) from exc
                successes += int(np.count_nonzero(decided))
                filled = 0
    if hypothesis.event == EVENT_ACCEPT:
        successes = n_samples - successes

    return McEstimate(
        mean=successes / n_samples,
        variance=mc_variance_of(successes, n_samples),
        n_samples=n_samples,
        successes=successes,
    )
