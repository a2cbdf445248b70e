"""Batch objectives: every scenario formula and the coefficients path give,
for a batch of designs, exactly the rows one-design calls give; evaluators
that return the wrong shape are refused; an empty feasible set stays empty."""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from trialopt import engine  # noqa: E402
from trialopt.cli import build_objectives, build_problem, normalize_config  # noqa: E402
from trialopt.domain import (  # noqa: E402
    Constraint,
    DesignPoint,
    DesignSpace,
    Dimension,
    EvaluationRecord,
    Hypothesis,
    ObjectiveSpec,
    Problem,
)
from trialopt.simlib import SCENARIOS  # noqa: E402

FORMULAS = [(name, formula) for name, scenario in sorted(SCENARIOS.items())
            for formula in sorted(scenario.objective_formulas)]


def same_bits(a, b):
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


def formula_problem(scenario_name, formula):
    """The problem a config naming this formula builds, over every design
    parameter the scenario knows."""
    scenario = SCENARIOS[scenario_name]
    labels, _ = scenario.objective_formulas[formula]
    params = scenario.design_params + scenario.optional_params
    cfg = normalize_config({
        "scenario": scenario_name,
        "design_space": [{"name": p, "low": 0.5, "up": 500.0} for p in params],
        "hypotheses": [{"name": "h", "params": {
            p: 0.1 for p in scenario.hypothesis_params}}],
        "constraints": [{"label": "g", "hypothesis": "h", "nominal": 0.1}],
        "objectives": {"formula": formula},
        "reference_point": [1e6] * len(labels),
    })
    problem, _ = build_problem(cfg)
    return problem


# lattice values (integers and thirds, as integer dimensions and grids give)
# and real values, including tiny and huge ones whose products round
values = st.one_of(st.integers(0, 600).map(float),
                   st.integers(0, 1800).map(lambda v: v / 3),
                   st.floats(1e-6, 1e6, allow_nan=False))


@pytest.mark.parametrize("scenario_name, formula", FORMULAS)
@given(data=st.data())
def test_formula_batch_rows_equal_one_row_calls(scenario_name, formula, data):
    problem = formula_problem(scenario_name, formula)
    names = problem.space.names
    rows = data.draw(st.lists(st.tuples(*[values] * len(names)), min_size=1, max_size=9))
    X = np.array(rows, dtype=float)
    batch = problem.objectives(X)
    assert batch.shape == (len(rows), problem.objectives.n_objectives)
    _, fn = SCENARIOS[scenario_name].objective_formulas[formula]
    for x, got in zip(X, batch):
        assert same_bits(got, problem.objectives(x[None])[0])
        # the formula on one design's plain floats, as configs used to call it
        assert same_bits(got, [float(v) for v in fn(dict(zip(names, map(float, x))))])


@given(st.integers(1, 6).flatmap(lambda d: st.tuples(
    st.lists(st.lists(values, min_size=d, max_size=d), min_size=1, max_size=3),
    st.lists(st.lists(values, min_size=d, max_size=d), min_size=1, max_size=9),
    st.sampled_from((1.0, 1e-3, 7.3e4)))))
def test_coefficient_batch_rows_equal_matrix_vector_products(case):
    coefficients, rows, scale = case
    matrix = np.array(coefficients) * scale
    labels = [f"f{i}" for i in range(len(matrix))]
    names = [f"x{i}" for i in range(matrix.shape[1])]
    objectives = build_objectives({"labels": labels, "coefficients": matrix.tolist()},
                                  SCENARIOS["two_arm_normal"], names)
    X = np.array(rows)
    batch = objectives(X)
    for x, got in zip(X, batch):
        assert same_bits(got, matrix @ x)
        assert same_bits(got, objectives(x[None])[0])


def test_objectives_shapes_and_wrong_shaped_evaluators():
    spec = ObjectiveSpec(("a", "b"), lambda X: np.column_stack([X[:, 0], 2.0 * X[:, 1]]))
    assert spec([[1.0, 2.0]]).tolist() == [[1.0, 4.0]]
    assert spec([[1.0, 2.0], [3.0, 4.0]]).tolist() == [[1.0, 4.0], [3.0, 8.0]]
    assert spec(np.empty((0, 2))).shape == (0, 2)
    # rows only: one design is a one-row array
    for bad in ([1.0, 2.0], np.ones((2, 2, 2)), 1.0):
        with pytest.raises(ValueError, match="rows"):
            spec(bad)
    # evaluators written for one design at a time, and other wrong shapes
    stale = ObjectiveSpec(("a", "b"), lambda x: np.array([x[0], x[1]]))
    stale_one = ObjectiveSpec(("a",), lambda x: np.array([x[0]]))
    transposed = ObjectiveSpec(("a", "b"), lambda X: X.T)
    flat = ObjectiveSpec(("a",), lambda X: X[:, 0])
    for spec, rows in ((stale, np.ones((3, 2))), (stale_one, np.ones((4, 1))),
                       (transposed, np.ones((3, 2))), (flat, np.ones((3, 2)))):
        with pytest.raises(ValueError, match="shape"):
            spec(rows)


def test_feasible_set_with_nothing_feasible_is_empty():
    space = DesignSpace((Dimension("n", 10, 200, "integer"),))

    def evaluate(X):
        assert len(X), "no objectives call for an empty set"
        return X[:, :1]

    problem = Problem(space, ObjectiveSpec(("n",), evaluate),
                      (Constraint("typeII", "alt", 0.1, 0.9),),
                      {"alt": Hypothesis("alt", {})}, (200.0,))
    state = engine.RunState(problem=problem, budget=engine.BudgetConfig(n_per_eval=50),
                            pso=engine.PsoConfig(), master_seed=0)
    # every design fails its bound by far
    state.records = [EvaluationRecord(DesignPoint((n,)), "alt", 50, 50, seed=i)
                     for i, n in enumerate((10.0, 60.0, 110.0, 160.0, 200.0))]
    engine._update_models(state, refit=True)
    aset = engine.recompute_feasible_set(state)
    assert len(aset) == 0 and aset.members == ()
    assert aset.reference == (200.0,)
