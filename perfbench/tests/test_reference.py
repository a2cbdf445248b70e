"""Tests of the benchmark's own reference computations and checks.

    PYTHONPATH=src python3 -m pytest perfbench/tests -q
"""

import math
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import reference  # noqa: E402
import workloads  # noqa: E402


def test_volume_2d_criterion_1_fixture():
    rows = [(589, 24), (705, 20), (810, 12), (982, 10)]
    assert reference.dominated_volume(rows, (1200, 30)) == 9202.0


@pytest.mark.parametrize("rows, ref, volume", [
    ([(1, 1, 1)], (2, 2, 2), 1.0),
    # two 2x1x2 boxes overlapping in a 1x1x2 box
    ([(1, 2, 1), (2, 1, 1)], (3, 3, 3), 6.0),
    # a 2x2x1 box and a 1x1x2 box overlapping in a unit cube
    ([(1, 1, 2), (2, 2, 1)], (3, 3, 3), 5.0),
    # three axis-staggered points: 3*1*1 + 1*3*1 + 1*1*3 - 3 pairwise cubes + 1
    ([(0, 2, 2), (2, 0, 2), (2, 2, 0)], (3, 3, 3), 7.0),
])
def test_volume_3d_hand_fixtures(rows, ref, volume):
    assert reference.dominated_volume(rows, ref) == volume


def test_volume_ignores_dominated_and_outside_rows():
    base = [(1, 2, 1), (2, 1, 1)]
    assert reference.dominated_volume(base + [(2, 2, 2), (0.5, 5, 0.5)], (3, 3, 3)) == 6.0
    assert reference.dominated_volume([], (3, 3)) == 0.0


def test_nondominated():
    assert reference.nondominated([(1, 3), (2, 2), (3, 1)])
    assert not reference.nondominated([(1, 3), (2, 3)])
    assert not reference.nondominated([(1, 3), (1, 3)])


def test_cluster_front_hv_star():
    front = reference.cluster_true_front()
    assert reference.cluster_hv_star() == 51798.0
    assert all(reference.cluster_type2(n, k) <= reference.CLUSTER_BETA for n, k in front)
    for n, k in front:  # one fewer participant breaks the bound
        if n > reference.CLUSTER_N[0]:
            assert reference.cluster_type2(n - 1, k) > reference.CLUSTER_BETA


def test_cluster_power_rises_with_n():
    for k in (3, 11, 20, 30):
        errors = [reference.cluster_type2(n, k) for n in range(100, 501, 20)]
        assert all(b <= a for a, b in zip(errors, errors[1:]))


def test_band_false_alarm_matches_definition():
    from scipy.stats import binom

    n, p, z = 400, 0.3, 2.0
    outside = sum(binom.pmf(c, n, p) for c in range(n + 1)
                  if not reference.within_band(c, n, p, z))
    assert math.isclose(reference.band_false_alarm(n, p, z), outside, rel_tol=1e-9)


def test_mc_oracle_family_false_alarm_is_small():
    """Chance that one mc_oracle round flags a correct estimate."""
    from trialopt.simlib import get_scenario

    total = 0.0
    for name, (alt, null, points, null_point) in workloads.ORACLE_POINTS.items():
        scenario = get_scenario(name)
        checks = [(x, alt) for x in points] + [(null_point, null)]
        for x, hp in checks:
            total += reference.band_false_alarm(
                workloads.MC_REPLICATES, scenario.rejection_rate(x, hp), workloads.BAND_Z)
        total += reference.band_false_alarm(
            workloads.WORKER_REPLICATES, scenario.rejection_rate(null_point, null),
            workloads.BAND_Z)
    assert total < 1e-5


def test_speed_factor_weights_kernel_samples_by_step_duration():
    import calibration

    # kernel 20 ms next to a 1 s step, 10 ms next to a 3 s step: 12.5 ms
    timed = [(1.0, 0.020), (3.0, 0.010)]
    assert calibration.speed_factor(timed) == pytest.approx(calibration.REFERENCE_S / 0.0125)
