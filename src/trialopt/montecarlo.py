"""Monte Carlo estimation of trial operating characteristics.

Replicate seeds are derived from a counter, not drawn from a shared stream,
so each replicate's outcome depends only on (master seed, evaluation index,
replicate index), never on the order in which replicates run.

Replicate ``i`` draws exactly the stream of ``np.random.default_rng(seed_i)``
with ``seed_i = derive_replicate_seed(master, eval_index, i)``, but
``mc_estimate`` builds one generator per call and sets its state before each
replicate. The state that ``default_rng(seed_i)`` would start from is
derived for a chunk of replicates at once, in uint64 array arithmetic that
follows numpy's ``SeedSequence`` and ``PCG64`` seeding step for step, as
four words per replicate: ``state`` and ``inc``, low word first, the bytes
of numpy's ``pcg64_random_t`` on a little-endian machine whose compiler has
``__uint128_t``. Setting a replicate's state is one copy of its 32 bytes to
the struct behind the generator's ``ctypes.state_address``, and a zeroing of
the 8 bytes of ``has_uint32`` and ``uinteger``, so no half of a 64-bit draw
stays buffered from the replicate before. Before anything is drawn, each
estimate reads replicate 0's state back through the public ``state``
property and raises RuntimeError unless it is ``default_rng(seed_0)``'s: a
numpy that lays the struct out otherwise is refused, never drawn from.

Simulation is batch-first. A simulator is called once per estimate and
returns the ``Batch`` of its design point: each replicate's draws go into
one row of a block, and the analysis decides the whole block in one array
pass, so no per-replicate Python arithmetic is left beyond setting the state
and drawing.
"""

from __future__ import annotations

import ctypes
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .domain import EVENT_ACCEPT, DesignPoint, Hypothesis, mc_variance_of

_MASK32 = (1 << 32) - 1
_MASK64 = (1 << 64) - 1

# replicates whose generator states are derived together, and the most rows
# a block holds; with _BLOCK_DOUBLES this bounds the memory an estimate holds
# whatever its sample count and row size
_CHUNK = 1024
_BLOCK_DOUBLES = 16_384
# has_uint32 and uinteger, zeroed before each replicate
_NOTHING_BUFFERED = bytes(8)

# numpy's SeedSequence hash constants (numpy/random/bit_generator.pyx)
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
# PCG64's 128-bit LCG multiplier (numpy/random/src/pcg64/pcg64.h), high
# and low words
_PCG_MULT_HI, _PCG_MULT_LO = 0x2360ED051FC65DA4, 0x4385DF649FCCF645


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
    return _replicate_seeds(master_seed, eval_index, replicate_index)


def _replicate_seeds(master_seed: int, eval_index: int, start: int,
                     stop: int | None = None):
    """``derive_replicate_seed`` for replicates ``start`` to ``stop - 1``, as
    uint64; for replicate ``start`` alone, as an int, when ``stop`` is None.
    The one replicate is mixed as an int, not a one-element array, which
    takes ten times as long for the same value."""
    if eval_index < 0 or start < 0:
        raise ValueError("indices must be non-negative")
    replicates = start if stop is None else np.arange(start, stop, dtype=np.uint64)
    counter = ((eval_index & 0xFFFFFFFF) << 32) | (replicates & 0xFFFFFFFF)
    return _splitmix64(counter ^ _splitmix64(master_seed & _MASK64))


def _mul_hi64(x: np.ndarray, c: int) -> np.ndarray:
    """The high 64 bits of each 128-bit product ``x * c``, from 32-bit limbs."""
    x_lo, x_hi = x & _MASK32, x >> 32
    c_lo, c_hi = c & _MASK32, c >> 32
    lo_lo, lo_hi, hi_lo = x_lo * c_lo, x_lo * c_hi, x_hi * c_lo
    mid = (lo_lo >> 32) + (lo_hi & _MASK32) + (hi_lo & _MASK32)
    return x_hi * c_hi + (lo_hi >> 32) + (hi_lo >> 32) + (mid >> 32)


def _pcg64_states(seeds: np.ndarray) -> np.ndarray:
    """The PCG64 state that ``np.random.default_rng(seed)`` starts from, for
    each uint64 seed, as a (len(seeds), 4) uint64 array whose rows are
    ``state`` and ``inc``, low word first: the 32 bytes of numpy's
    ``pcg64_random_t`` where ``pcg128_t`` is a little-endian ``__uint128_t``.

    ``SeedSequence(seed)`` hashes the seed's 32-bit words (two, the high one
    zero for seeds below 2**32, which hashes as the one-word form) into a
    pool of four, and ``generate_state(4, uint64)`` hashes the pool into
    ``initstate`` (words 0-1) and ``initseq`` (words 2-3); PCG64 then sets
    ``inc = initseq << 1 | 1`` and steps the LCG from 0, adds ``initstate``
    and steps again: ``state = (inc + initstate) * MULT + inc`` mod 2**128.
    The 128-bit sums carry by hand and the 64x64-bit products take their
    high words from ``_mul_hi64``, so every step is uint64 array arithmetic.
    """
    hash_const = _INIT_A

    def hashmix(value):
        nonlocal hash_const
        value = value ^ hash_const
        hash_const = (hash_const * _MULT_A) & _MASK32
        value = value * hash_const
        return value ^ (value >> 16)

    def mix(x, y):
        result = _MIX_MULT_L * x - _MIX_MULT_R * y
        return result ^ (result >> 16)

    words = [(seeds & _MASK32).astype(np.uint32), (seeds >> 32).astype(np.uint32)]
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
        hash_const = (hash_const * _MULT_B) & _MASK32
        value = value * hash_const
        out.append((value ^ (value >> 16)).astype(np.uint64))
    # 64-bit words are little-endian pairs of 32-bit words
    init_hi, init_lo, seq_hi, seq_lo = (out[2 * i] | (out[2 * i + 1] << 32) for i in range(4))

    inc_lo = (seq_lo << 1) | 1
    inc_hi = (seq_hi << 1) | (seq_lo >> 63)
    sum_lo = inc_lo + init_lo
    sum_hi = inc_hi + init_hi + (sum_lo < inc_lo)
    product_lo = sum_lo * _PCG_MULT_LO
    product_hi = (_mul_hi64(sum_lo, _PCG_MULT_LO) + sum_lo * _PCG_MULT_HI
                  + sum_hi * _PCG_MULT_LO)
    state_lo = product_lo + inc_lo
    state_hi = product_hi + inc_hi + (state_lo < product_lo)
    return np.stack([state_lo, state_hi, inc_lo, inc_hi], axis=1)


def _state_views(bitgen: np.random.PCG64) -> tuple[memoryview, memoryview]:
    """Writable byte views of ``bitgen``'s 32 state bytes and of the 8 bytes
    of ``has_uint32`` and ``uinteger``.

    ``ctypes.state_address`` is the address of numpy's ``pcg64_state``: a
    pointer to the ``pcg64_random_t`` that holds ``state`` and ``inc``,
    then ``int has_uint32`` and ``uint32_t uinteger``.
    """
    struct = bitgen.ctypes.state_address
    words_at = ctypes.c_void_p.from_address(struct).value
    return (memoryview((ctypes.c_char * 32).from_address(words_at)).cast("B"),
            memoryview((ctypes.c_char * 8).from_address(struct + 8)).cast("B"))


def _require_default_rng_state(bitgen: np.random.PCG64, rep_seed: int) -> None:
    """Refuse to draw unless the copied words gave ``bitgen`` the state of
    ``np.random.default_rng(rep_seed)``, as its public ``state`` reads it."""
    if bitgen.state != np.random.PCG64(rep_seed).state:
        raise RuntimeError(
            f"numpy {np.__version__} lays out its PCG64 state otherwise than "
            "mc_estimate writes it, so its replicates would not draw the "
            "default_rng streams of their seeds")


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
    generator, set before each replicate to the state of
    ``np.random.default_rng(derive_replicate_seed(seed, eval_index, i))`` by
    copying that replicate's four words from ``_pcg64_states`` into the
    generator's struct and zeroing its buffered uint32. The first copy is
    read back through ``PCG64.state`` and compared with ``default_rng``'s own
    state before ``fill`` is called; a mismatch raises RuntimeError naming
    numpy's version. The Batch that ``sim(point, hypothesis)`` returns fills
    one row per replicate and decides a block of at most ``_CHUNK`` rows and
    ``_BLOCK_DOUBLES`` values at a time. ``workers`` is kept only for its
    existing callers and does not change how replicates run (a thread pool
    over replicates measured no faster than one thread). A failing simulator
    raises SimulationError for the earliest failing replicate, with the seed
    that reproduces it: a failing call of ``sim``, or one that returns no
    Batch, is replicate 0's, and a failing ``decide`` is reported at the
    first replicate of its block. The estimate is the event fraction with
    the clamped binomial variance.
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
    state_bytes, buffered_bytes = _state_views(bitgen)
    successes = 0
    filled = 0  # rows of the block drawn and not yet decided
    for start in range(0, n_samples, _CHUNK):
        words = memoryview(_pcg64_states(_replicate_seeds(
            seed, eval_index, start, min(start + _CHUNK, n_samples)))).cast("B")
        if start == 0:
            state_bytes[:] = words[:32]
            _require_default_rng_state(bitgen, derive_replicate_seed(seed, eval_index, 0))
        for i, at in enumerate(range(0, len(words), 32), start):
            state_bytes[:] = words[at:at + 32]
            buffered_bytes[:] = _NOTHING_BUFFERED
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
        del words  # freed before the next chunk's states are derived
    if hypothesis.event == EVENT_ACCEPT:
        successes = n_samples - successes

    return McEstimate(
        mean=successes / n_samples,
        variance=mc_variance_of(successes, n_samples),
        n_samples=n_samples,
        successes=successes,
    )
