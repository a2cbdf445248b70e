"""Sobol low-discrepancy sequences from published direction numbers.

Generates points in Gray-code order with the all-zeros leading term skipped,
using the Joe-Kuo primitive polynomials and initial direction numbers for the
first dimensions (Joe & Kuo 2008, "Constructing Sobol sequences with better
two-dimensional projections"). Coordinates are dyadic rationals strictly
inside [0, 1).

The whole block is built at once: point i is the running XOR of the
direction numbers its Gray-code steps pick, one ``np.bitwise_xor.accumulate``
over the (count, d) array of those numbers, so no Python loop runs per point.
"""

from __future__ import annotations

import numpy as np

MAX_DIM = 16

# Joe-Kuo table: full primitive polynomial encodings and initial m values.
# Dimension 1 is the van der Corput sequence (m_k = 1 for all k). A few rows
# beyond MAX_DIM are kept for internal callers that need extra dimensions.
_POLY = (
    1, 3, 7, 11, 13, 19, 25, 37, 41, 47, 55, 59, 61, 67, 91, 97,
    103, 109, 115, 131, 137,
)
_M_INIT = (
    (1,),
    (1,),
    (1, 3),
    (1, 3, 1),
    (1, 1, 1),
    (1, 1, 3, 3),
    (1, 3, 5, 13),
    (1, 1, 5, 5, 17),
    (1, 1, 5, 5, 5),
    (1, 1, 7, 11, 19),
    (1, 1, 5, 1, 1),
    (1, 1, 1, 3, 11),
    (1, 3, 5, 5, 31),
    (1, 3, 3, 9, 7, 49),
    (1, 1, 1, 15, 21, 21),
    (1, 3, 1, 13, 27, 49),
    (1, 1, 1, 15, 7, 5),
    (1, 3, 1, 15, 13, 25),
    (1, 1, 5, 5, 19, 61),
    (1, 3, 7, 11, 23, 15, 103),
    (1, 3, 7, 13, 13, 15, 69),
)

_N_BITS = 30


class UnsupportedDimensionError(ValueError):
    """Requested dimension exceeds the shipped direction-number table."""


def _direction_numbers(dim_index: int, n_bits: int = _N_BITS) -> list[int]:
    """32-bit style direction integers v_1..v_n for one dimension (0-based)."""
    if dim_index == 0:
        m = [1] * n_bits
    else:
        poly = _POLY[dim_index]
        degree = poly.bit_length() - 1
        m = list(_M_INIT[dim_index])
        while len(m) < n_bits:
            k = len(m)
            new = m[k - degree] ^ (m[k - degree] << degree)
            for i in range(1, degree):
                if (poly >> (degree - i)) & 1:
                    new ^= m[k - i] << i
            m.append(new)
    return [m[k] << (n_bits - k - 1) for k in range(n_bits)]


def sobol_points(d: int, count: int) -> np.ndarray:
    """First ``count`` Sobol points in d dimensions, zeros term skipped.

    Returns an array of shape (count, d) with entries in [0, 1). Points are
    produced in Gray-code order (Antonov-Saleev), so consecutive points differ
    in a single direction number.
    """
    if not 1 <= d <= MAX_DIM:
        raise UnsupportedDimensionError(
            f"dimension {d} outside supported range 1..{MAX_DIM}"
        )
    return _sobol_raw(d, count)


def _sobol_raw(d: int, count: int) -> np.ndarray:
    """Unchecked generator; internal callers may exceed MAX_DIM up to the table."""
    if count < 1:
        raise ValueError("count must be >= 1")
    if d > len(_POLY):
        raise UnsupportedDimensionError(
            f"dimension {d} exceeds direction-number table ({len(_POLY)})"
        )
    if count >= 1 << _N_BITS:
        raise ValueError("count exceeds sequence period")
    # (n_bits, d): row k holds direction number k of every dimension
    directions = np.array([_direction_numbers(j) for j in range(d)], dtype=np.int64).T
    # point i (from 1) takes direction number ctz(i), the index of the
    # rightmost zero bit of i - 1; i & -i is the power of two 2**ctz(i)
    index = np.arange(1, count + 1)
    ctz = np.frexp(index & -index)[1] - 1
    state = np.bitwise_xor.accumulate(directions[ctz], axis=0)
    return state / float(1 << _N_BITS)
