import json
import math
from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from trialopt import pareto
from trialopt.acquisition import feasibility_quantile
from trialopt.domain import (
    INTEGER,
    MAX_OBJECTIVES,
    Constraint,
    DesignPoint,
    DesignSpace,
    Dimension,
    EvaluationRecord,
    Hypothesis,
    ObjectiveSpec,
    Problem,
    cross_problems,
    mc_variance_of,
    pool_by_design,
)


def two_dim_space():
    return DesignSpace((
        Dimension("n", 100, 500, "integer"),
        Dimension("k", 3, 30, "integer"),
    ))


def simple_objectives():
    return ObjectiveSpec(("participants", "providers"),
                         lambda X: np.column_stack([2.0 * X[:, 0], 3.0 * X[:, 1]]))


def test_validate_well_formed_problem_is_clean():
    constraints = [Constraint("typeII", "alt", 0.1, 0.9)]
    hypotheses = {"alt": Hypothesis("alt", {"beta1": 1.1})}
    assert cross_problems(constraints, hypotheses, simple_objectives(),
                          (1200.0, 30.0)) == []
    problem = Problem(two_dim_space(), simple_objectives(), constraints,
                      hypotheses, (1200.0, 30.0))
    assert problem.constraints == tuple(constraints)


def test_validate_degenerate_bound():
    with pytest.raises(ValueError, match="degenerate bound"):
        Dimension("n", 100, 100)


def test_validate_duplicate_constraint_label():
    with pytest.raises(ValueError, match="duplicate label 'g'"):
        Problem(two_dim_space(), simple_objectives(),
                [Constraint("g", "alt", 0.1), Constraint("g", "alt", 0.2)],
                {"alt": Hypothesis("alt", {})}, (1200.0, 30.0))


def test_validate_integer_dim_without_integers():
    with pytest.raises(ValueError, match="contains no integer"):
        Dimension("n", 3.2, 3.8, "integer")


def test_validate_cross_references_and_ranges():
    with pytest.raises(ValueError) as caught:
        Constraint("a", "alt", 1.5, 0.4)
    assert "outside (0, 1)" in str(caught.value)
    assert "outside (0.5, 1)" in str(caught.value)
    with pytest.raises(ValueError, match="unknown hypothesis 'missing'"):
        Problem(two_dim_space(), simple_objectives(),
                [Constraint("a", "missing", 0.1)],
                {"alt": Hypothesis("alt", {})}, (1200.0, 30.0))


@pytest.mark.parametrize("build, message", [
    (lambda: Dimension("n", 1, 2, "weird"), "dimension 'n' has unknown kind 'weird'"),
    (lambda: Dimension({}, 1, 2), "name must be a string, got {}"),
    (lambda: Hypothesis("alt", {}, event="maybe"),
     "hypothesis 'alt' has unknown event 'maybe'"),
    (lambda: Hypothesis(["alt"], {}), "name must be a string, got ['alt']"),
    (lambda: Constraint([1], "alt", 0.1), "label must be a string, got [1]"),
    (lambda: Constraint("g", [1], 0.1), "hypothesis must be a string, got [1]"),
    (lambda: DesignSpace(()), "design space has no dimensions"),
    (lambda: DesignSpace((Dimension("n", 1, 2), Dimension("n", 3, 4))),
     "duplicate dimension name 'n'"),
    (lambda: ObjectiveSpec((), lambda X: X), "at least one objective is required"),
    (lambda: ObjectiveSpec(("a", "a"), lambda X: X), "duplicate objective label 'a'"),
    (lambda: ObjectiveSpec(("a", 1), lambda X: X),
     "objective label must be a string, got 1"),
])
def test_each_type_refuses_what_it_can_judge_alone(build, message):
    with pytest.raises(ValueError) as caught:
        build()
    assert message in str(caught.value)


def test_problem_reports_every_cross_problem_at_once():
    hyp = Hypothesis("alt", {})
    with pytest.raises(ValueError) as caught:
        Problem(two_dim_space(), simple_objectives(),
                [Constraint("g", "alt", 0.1), Constraint("g", "null", 0.2)],
                {"alt": hyp, "other": hyp}, (1200.0,))
    assert str(caught.value) == (
        "invalid problem: duplicate label 'g'; constraint 'g' references unknown "
        "hypothesis 'null'; hypothesis key 'other' does not match its name 'alt'; "
        "reference point has 1 entries for 2 objectives")


def test_problem_refuses_more_objectives_than_the_hypervolume_covers():
    labels = tuple(f"f{i}" for i in range(MAX_OBJECTIVES + 1))
    objectives = ObjectiveSpec(labels, lambda X: np.zeros((len(X), len(labels))))
    with pytest.raises(ValueError) as caught:
        Problem(two_dim_space(), objectives, (Constraint("g", "alt", 0.1),),
                {"alt": Hypothesis("alt", {})}, (1.0,) * len(labels))
    assert str(caught.value) == (
        "invalid problem: 4 objectives given; the hypervolume covers at most 3")
    assert pareto.MAX_OBJECTIVES == MAX_OBJECTIVES


def test_a_hypothesis_known_by_name_alone_may_be_referenced():
    assert cross_problems([Constraint("g", "alt", 0.1)], {"alt": None}) == []


def test_mc_variance_bernoulli_bound():
    rng = np.random.default_rng(0)
    for _ in range(200):
        n = int(rng.integers(1, 5000))
        s = int(rng.integers(0, n + 1))
        v = mc_variance_of(s, n)
        assert 0.0 < v <= 0.25 / n + 1e-15


@given(st.lists(st.integers(1, 10**6).flatmap(lambda n: st.tuples(
    st.integers(0, n), st.just(n),
    st.floats(0.5, 1.0, exclude_min=True, exclude_max=True))), min_size=1, max_size=40))
def test_array_variance_and_quantile_equal_the_scalar_forms_bitwise(triples):
    s, n, p = (np.array(column) for column in zip(*triples))
    variance = mc_variance_of(s, n)
    quantile = feasibility_quantile(s / n, variance, p)
    for (si, ni, pi), v, q in zip(triples, variance, quantile):
        # the clamped-rate variance in plain Python floats
        low = 1.0 / (2.0 * ni)
        y = min(max(si / ni, low), 1.0 - low)
        want = y * (1.0 - y) / ni
        scalar = mc_variance_of(si, ni)
        assert type(scalar) is float and scalar == want
        assert np.float64(want).tobytes() == v.tobytes()
        assert np.float64(feasibility_quantile(si / ni, want, pi)).tobytes() == q.tobytes()


def test_record_variance_uses_clamped_rate():
    rec = EvaluationRecord(DesignPoint((1.0,)), "alt", n_samples=100,
                           successes=0, seed=0)
    assert rec.estimate == 0.0
    expected = (1 / 200) * (1 - 1 / 200) / 100
    assert rec.mc_variance == pytest.approx(expected, rel=1e-12)
    assert rec.mc_variance > 0


def test_record_rejects_bad_successes():
    with pytest.raises(ValueError):
        EvaluationRecord(DesignPoint((1.0,)), "alt", n_samples=10,
                         successes=11, seed=0)


def test_snap_rounds_integer_dims_and_clips():
    space = two_dim_space()
    snapped = space.snap([137.6, 31.2])
    assert snapped.tolist() == [138.0, 30.0]
    assert space.contains(snapped)


def mixed_space():
    return DesignSpace((
        Dimension("a", 1, 50, "integer"),
        Dimension("b", 0.5, 2.0),
        Dimension("c", -3.5, 7.5, "integer"),
        Dimension("d", 0.0, 1.0),
        Dimension("e", 2.2, 9.9, "integer"),
    ))


def loop_snap(space, x):
    """One design snapped one value at a time: clipped to the box, and an
    integer dimension rounded half up within its integer bounds."""
    out = []
    for dim, v in zip(space.dims, x):
        v = min(max(v, dim.lower), dim.upper)
        if dim.kind == INTEGER:
            v = min(max(math.floor(v + 0.5), math.ceil(dim.lower)), math.floor(dim.upper))
        out.append(float(v))
    return out


# half-integers, where rounding half up decides, values far outside every
# box, and reals
snap_values = st.one_of(st.integers(-120, 240).map(lambda v: v / 2),
                        st.floats(-1e6, 1e6, allow_nan=False))


@given(st.lists(st.tuples(*[snap_values] * 5), min_size=1, max_size=40))
def test_batch_snap_equals_one_row_snaps_bitwise(rows):
    space = mixed_space()
    X = np.array(rows, dtype=float)
    batch = space.snap(X)
    assert batch.shape == X.shape
    for x, got in zip(X, batch):
        assert got.tobytes() == space.snap(x).tobytes()
        assert got.tolist() == loop_snap(space, x.tolist())
        assert space.contains(got)


def test_normalize_denormalize_roundtrip():
    space = two_dim_space()
    coords = np.array([250.0, 17.0])
    assert np.allclose(space.denormalize(space.normalize(coords)), coords)


def test_revalidating_serialized_problem_gives_identical_report():
    # round-trip the parts through plain dicts, as the config layer does
    def refusal(build):
        with pytest.raises(ValueError) as caught:
            build()
        return str(caught.value)

    dim = {"name": "n", "lower": 100, "upper": 100, "kind": "integer"}
    dim2 = json.loads(json.dumps(dim))
    assert refusal(lambda: Dimension(**dim)) == refusal(lambda: Dimension(**dim2))
    cons = [Constraint("g", "alt", 0.1), Constraint("g", "alt", 0.2)]
    cons2 = [Constraint(**c) for c in json.loads(json.dumps([asdict(c) for c in cons]))]
    assert cross_problems(cons, {}) == cross_problems(cons2, {})
    assert len(cross_problems(cons, {})) == 3


def test_problem_validates_reference_point_length():
    with pytest.raises(ValueError, match="reference point has 1 entries for 2"):
        Problem(
            two_dim_space(), simple_objectives(),
            (Constraint("g", "alt", 0.1),),
            {"alt": Hypothesis("alt", {})},
            reference_point=(1200.0,),
        )


def test_constrained_hypotheses_in_constraint_order():
    problem = Problem(
        two_dim_space(), simple_objectives(),
        (Constraint("a", "h2", 0.1), Constraint("b", "h1", 0.1),
         Constraint("c", "h2", 0.2)),
        {"h1": Hypothesis("h1", {}), "h2": Hypothesis("h2", {})},
        reference_point=(1200.0, 30.0),
    )
    assert problem.constrained_hypotheses == ("h2", "h1")


# (point index, hypothesis, n, successes) per record; few points, so they repeat
_record_rows = st.lists(st.tuples(st.integers(0, 3), st.sampled_from(["alt", "null"]),
                                  st.integers(1, 40), st.integers(0, 40)),
                        max_size=25)


@given(_record_rows)
def test_pool_by_design_matches_a_brute_force_scan(rows):
    records = [EvaluationRecord(DesignPoint((float(i), 2.0 * i)), hyp, n,
                                min(s, n), seed=j)
               for j, (i, hyp, n, s) in enumerate(rows)]
    pool = pool_by_design(records)
    order = []
    for rec in records:
        if rec.point not in order:
            order.append(rec.point)
    assert list(pool) == order
    for point in order:
        expected = {}
        for hyp in ("alt", "null"):
            at = [r for r in records if r.point == point and r.hypothesis == hyp]
            if at:
                expected[hyp] = (sum(r.successes for r in at),
                                 sum(r.n_samples for r in at))
        assert pool[point] == expected
