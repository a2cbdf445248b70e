import numpy as np
import pytest

from trialopt.sobol import UnsupportedDimensionError, _direction_numbers, _sobol_raw, sobol_points

# Joe-Kuo parameters for the first two dimensions, written independently of
# the implementation: dimension 1 is van der Corput; dimension 2 uses the
# degree-1 polynomial x+1 with m = (1,).
_ORACLE_NBITS = 30


def _oracle_direction_numbers(dim):
    if dim == 0:
        m = [1] * _ORACLE_NBITS
    else:
        m = [1]
        while len(m) < _ORACLE_NBITS:  # recurrence for poly x+1: m_k = 3*m_{k-1} xor ...
            k = len(m)
            m.append(m[k - 1] ^ (m[k - 1] << 1))
    return [m[k] << (_ORACLE_NBITS - k - 1) for k in range(_ORACLE_NBITS)]


def _oracle_point(index, dims):
    """Bit-level evaluation: XOR direction numbers over set bits of gray(index)."""
    gray = index ^ (index >> 1)
    out = []
    for d in range(dims):
        v = _oracle_direction_numbers(d)
        acc = 0
        for bit in range(index.bit_length()):
            if (gray >> bit) & 1:
                acc ^= v[bit]
        out.append(acc / float(1 << _ORACLE_NBITS))
    return out


@pytest.mark.parametrize("d", [1, 2])
def test_first_eight_points_match_bit_level_oracle(d):
    pts = sobol_points(d, 8)
    expected = np.array([_oracle_point(i, d) for i in range(1, 9)])
    assert np.array_equal(pts, expected)


def test_d1_first_three_values():
    assert sobol_points(1, 3).ravel().tolist() == [0.5, 0.75, 0.25]


def test_d2_first_point():
    assert sobol_points(2, 1).tolist() == [[0.5, 0.5]]


@pytest.mark.parametrize("d", [1, 2, 5, 16])
def test_matches_scipy_direction_numbers(d):
    qmc = pytest.importorskip("scipy.stats.qmc")
    import warnings
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        ref = qmc.Sobol(d=d, scramble=False).random(257)[1:]
    assert np.array_equal(sobol_points(d, 256), ref)


def test_points_inside_unit_box_and_distinct():
    pts = sobol_points(3, 1000)
    assert np.all(pts >= 0.0) and np.all(pts < 1.0)
    assert len({tuple(row) for row in pts}) == 1000


def loop_sobol(d, count):
    """The generator one point and one dimension at a time: point i (from 1)
    XORs into the state the direction number of the rightmost zero bit of
    i - 1. This is the loop the block generator replaced."""
    directions = [_direction_numbers(j) for j in range(d)]
    points = np.empty((count, d), dtype=float)
    state = [0] * d
    for i in range(1, count + 1):
        c, value = 0, i - 1
        while value & 1:
            value >>= 1
            c += 1
        for j in range(d):
            state[j] ^= directions[j][c]
            points[i - 1, j] = state[j] / float(1 << 30)
    return points


@pytest.mark.parametrize("d", range(1, 22))
def test_block_generator_equals_the_point_loop_bitwise(d):
    want = loop_sobol(d, 5000)
    for count in (1, 2, 3, 7, 20, 100, 1025, 5000):
        got = _sobol_raw(d, count)
        assert got.dtype == want.dtype and got.shape == (count, d)
        assert got.tobytes() == want[:count].tobytes()


def test_dimension_limit():
    with pytest.raises(UnsupportedDimensionError):
        sobol_points(17, 4)
    with pytest.raises(UnsupportedDimensionError):
        sobol_points(0, 4)
