import numpy as np
import pytest

from trialopt.domain import DesignPoint
from trialopt.pareto import (
    ApproximationSet,
    HviCalculator,
    UnsupportedDimensionError,
    dominates,
    hypervolume,
    pareto_filter,
)


def as_set(objs, ref):
    members = tuple((DesignPoint(tuple(o)), tuple(o)) for o in objs)
    return ApproximationSet(members, tuple(ref))


PAPER_SET = [(589, 24), (705, 20), (810, 12), (982, 10)]
PAPER_REF = (1200, 30)


def gain_of(aset, candidate):
    """The improvement of one candidate: a one-row batch."""
    return HviCalculator(aset)(np.array([candidate], dtype=float))[0]


def test_dominance_paper_fixtures():
    # objectives (2n, k): (n=100, k=10) dominates (n=120, k=10) but not (n=80, k=13)
    assert dominates((200, 10), (240, 10))
    assert not dominates((200, 10), (160, 13))
    assert not dominates((160, 13), (200, 10))


def test_dominance_irreflexive():
    assert not dominates((1.0, 2.0), (1.0, 2.0))


def test_dominates_is_strict_partial_order():
    rng = np.random.default_rng(0)
    for _ in range(500):
        a, b, c = rng.integers(0, 4, (3, 3)).astype(float)
        # antisymmetry
        assert not (dominates(a, b) and dominates(b, a))
        # transitivity
        if dominates(a, b) and dominates(b, c):
            assert dominates(a, c)


def test_pareto_filter_drops_dominated():
    pts = [(DesignPoint((float(i),)), o) for i, o in enumerate(
        [(589, 24), (705, 20), (810, 12), (982, 10), (1000, 25)]
    )]
    kept = pareto_filter(pts)
    assert [o for _, o in kept] == [(589, 24), (705, 20), (810, 12), (982, 10)]


def test_pareto_filter_singleton_and_duplicates():
    p = DesignPoint((1.0,))
    assert pareto_filter([(p, (3.0, 4.0))]) == [(p, (3.0, 4.0))]
    q = DesignPoint((2.0,))
    kept = pareto_filter([(p, (3.0, 4.0)), (q, (3.0, 4.0)), (p, (3.0, 4.0))])
    assert len(kept) == 1
    assert kept[0][0] is p  # first seen survives


def test_hypervolume_paper_fixture_exact():
    assert hypervolume(as_set(PAPER_SET, PAPER_REF)) == 9202.0


def test_hypervolume_point_on_reference_is_zero():
    assert hypervolume(as_set([(1200, 30)], PAPER_REF)) == 0.0


def test_hypervolume_single_point_rectangle():
    assert hypervolume(as_set([(982, 10)], PAPER_REF)) == 4360.0


def test_hypervolume_one_dimensional():
    assert hypervolume(as_set([(63,)], (200,))) == 137.0
    assert hypervolume(as_set([], (200,))) == 0.0


def test_hypervolume_dimension_limit():
    with pytest.raises(UnsupportedDimensionError):
        hypervolume(as_set([(1, 2, 3, 4)], (5, 5, 5, 5)))


def test_improvement_of_dominated_candidate_is_zero():
    aset = as_set(PAPER_SET, PAPER_REF)
    assert gain_of(aset, (990, 11)) == 0.0
    assert gain_of(aset, (982, 10)) == 0.0  # exact duplicate


def test_improvement_on_empty_set_is_rectangle():
    aset = as_set([], PAPER_REF)
    assert gain_of(aset, (982, 10)) == 4360.0


def test_improvement_outside_reference_box_is_zero():
    aset = as_set(PAPER_SET, PAPER_REF)
    assert gain_of(aset, (1250, 5)) == 0.0
    assert gain_of(aset, (500, 30)) == 0.0


def test_improvement_of_wrong_length_candidate_raises():
    aset = as_set(PAPER_SET, PAPER_REF)
    for bad in ((990.0,), (500.0, 5.0, 1.0, 1.0), 500.0):
        with pytest.raises(ValueError):
            gain_of(aset, bad)
    with pytest.raises(ValueError):
        HviCalculator(aset)(np.ones((4, 3)))
    # rows only: one candidate is a one-row array
    with pytest.raises(ValueError, match="rows"):
        HviCalculator(aset)(np.array([990.0, 11.0]))


def test_hypervolume_monotone_under_insertion():
    rng = np.random.default_rng(1)
    for _ in range(50):
        objs = rng.uniform(0, 10, (6, 2))
        base = pareto_filter([(DesignPoint(tuple(o)), tuple(o)) for o in objs])
        aset = ApproximationSet(tuple(base), (12.0, 12.0))
        h = hypervolume(aset)
        cand = rng.uniform(0, 10, 2)
        gain = gain_of(aset, cand)
        if any(dominates(o, cand) or tuple(cand) == o for _, o in base):
            assert gain == 0.0
        else:
            assert gain > 0.0
        merged = pareto_filter(list(base) + [(DesignPoint(tuple(cand)), tuple(cand))])
        assert hypervolume(ApproximationSet(tuple(merged), (12.0, 12.0))) == (
            pytest.approx(h + gain, abs=1e-9)
        )


def test_bounding_box_upper_bound():
    aset = as_set(PAPER_SET, PAPER_REF)
    mins = np.min(np.array(PAPER_SET, dtype=float), axis=0)
    bound = np.prod(np.array(PAPER_REF) - mins)
    assert hypervolume(aset) <= bound


def test_three_objective_hypervolume_against_mc_volume():
    rng = np.random.default_rng(7)
    for _ in range(5):
        pts = rng.uniform(0, 1, (10, 3))
        ref = np.array([1.2, 1.2, 1.2])
        filtered = pareto_filter([(DesignPoint(tuple(p)), tuple(p)) for p in pts])
        aset = ApproximationSet(tuple(filtered), tuple(ref))
        exact = hypervolume(aset)
        samples = rng.uniform(0, 1.2, (1_000_000, 3))
        rows = aset.objective_rows
        covered = np.zeros(len(samples), dtype=bool)
        for row in rows:
            covered |= np.all(samples >= row, axis=1)
        est = covered.mean() * 1.2**3
        se = np.sqrt(max(est / 1.2**3 * (1 - est / 1.2**3), 1e-9) / len(samples)) * 1.2**3
        assert abs(exact - est) < 3 * se


def test_hvi_calculator_matches_reference():
    rng = np.random.default_rng(9)
    for n_obj in (1, 2, 3):
        ref = tuple([10.0] * n_obj)
        for _ in range(30):
            objs = rng.uniform(0, 11, (5, n_obj))  # some outside the box
            filtered = pareto_filter([(DesignPoint(tuple(o)), tuple(o)) for o in objs])
            aset = ApproximationSet(tuple(filtered), ref)
            calc = HviCalculator(aset)
            base = hypervolume(aset)
            for _ in range(10):
                cand = rng.uniform(0, 11, n_obj)
                merged = pareto_filter(filtered + [(DesignPoint(tuple(cand)), tuple(cand))])
                gain = hypervolume(ApproximationSet(tuple(merged), ref)) - base
                assert calc(cand[None])[0] == pytest.approx(max(0.0, gain), abs=1e-10)
