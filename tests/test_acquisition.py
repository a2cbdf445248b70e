import math

import numpy as np
import pytest
from scipy.stats import norm

from trialopt.acquisition import (
    PsoConfig,
    expected_improvement,
    feasibility_quantile,
    prob_feasible_after,
    pso_maximize,
    quantile_update,
)
from trialopt.domain import (
    Constraint,
    DesignPoint,
    DesignSpace,
    Dimension,
    ObjectiveSpec,
)
from trialopt.gp import KernelParams, build_model, gp_predict
from trialopt.pareto import ApproximationSet, hypervolume_improvement


def test_feasibility_quantile_examples():
    assert feasibility_quantile(0.0, 1.0, 0.5) == pytest.approx(0.0, abs=1e-12)
    # scale of Figure-3-style prediction mapped to the g-scale
    assert feasibility_quantile(-0.06, 0.035**2, 0.9) == pytest.approx(
        -0.06 + 1.2815515655446004 * 0.035, abs=1e-9
    )
    assert feasibility_quantile(-0.015146, 0.0, 0.99) == pytest.approx(-0.015146)


def test_quantile_update_printed_formulas():
    m, s2, w2, p = 0.1, 0.01, 0.2 * 0.8 / 100.0, 0.975
    m_plus, s2_plus = quantile_update(m, s2, w2, p)
    assert s2_plus == pytest.approx(0.0001 / 0.0116, rel=1e-9)
    assert m_plus == pytest.approx(
        0.1 + norm.ppf(0.975) * math.sqrt(w2 * s2 / (w2 + s2)), rel=1e-12
    )
    assert m_plus == pytest.approx(0.172792, abs=1e-4)


def test_quantile_update_limits():
    m, s2, p = -0.2, 0.04, 0.9
    # an uninformative planned evaluation cannot move the quantile
    m_plus, s2_plus = quantile_update(m, s2, 1e12, p)
    assert m_plus == pytest.approx(feasibility_quantile(m, s2, p), abs=1e-6)
    assert s2_plus <= 1e-6
    # a perfect planned evaluation keeps the current state
    m_plus, s2_plus = quantile_update(m, s2, 0.0, p)
    assert m_plus == m
    assert s2_plus == s2


def test_quantile_update_random_tuples_exact_algebra():
    rng = np.random.default_rng(8)
    z = norm.ppf
    for _ in range(1000):
        m = rng.normal()
        s2 = rng.uniform(1e-6, 2.0)
        w2 = rng.uniform(0.0, 2.0)
        p = rng.uniform(0.51, 0.99)
        m_plus, s2_plus = quantile_update(m, s2, w2, p)
        assert s2_plus == pytest.approx(s2**2 / (w2 + s2), rel=1e-12, abs=1e-15)
        assert m_plus == pytest.approx(
            m + z(p) * math.sqrt(w2 * s2 / (w2 + s2)), rel=1e-12, abs=1e-15
        )


def test_quantile_update_variance_always_shrinks():
    rng = np.random.default_rng(9)
    for _ in range(200):
        s2 = rng.uniform(1e-8, 3.0)
        w2 = rng.uniform(1e-8, 3.0)
        _, s2_plus = quantile_update(0.0, s2, w2, 0.9)
        assert s2_plus < s2


def test_prob_feasible_after_examples():
    assert prob_feasible_after(0.0, 1.0) == pytest.approx(0.5)
    assert prob_feasible_after(-1.96, 1.0) == pytest.approx(0.975002, abs=1e-6)
    assert prob_feasible_after(0.5, 0.0) == 0.0
    assert prob_feasible_after(-0.5, 0.0) == 1.0


def _single_constraint_setup(target, noise, nominal=0.5, confidence=0.9):
    """1-D problem with one GP trained on a single observation at x=0.5."""
    space = DesignSpace((Dimension("x", 0.0, 1.0),))
    con = Constraint("g", "h", nominal=nominal, confidence=confidence)
    params = KernelParams(0.5, (0.3,))
    model = build_model([[0.5]], [target], [noise], params)
    return space, con, {"g": model}


def test_expected_improvement_zero_when_dominated():
    space, con, models = _single_constraint_setup(-0.2, 0.01)
    objectives = ObjectiveSpec(("f",), lambda X: X[:, :1])
    current = ApproximationSet(
        ((DesignPoint((0.1,)), (0.1,)),), (1.0,)
    )
    ei = expected_improvement([0.5], models, [con], current, objectives, 100, space)
    assert ei == 0.0


def test_expected_improvement_composes_verified_factors():
    # empty set, candidate objectives (982, 10), r = (1200, 30), one constraint
    # whose updated quantile state is (m+ = 0, s+ > 0) -> EI = 4360 * 0.5
    space, con, models = _single_constraint_setup(0.0, 0.01, nominal=0.5,
                                                  confidence=0.9)
    # pick the training target so the updated mean lands exactly on zero:
    # with m = 0 the update adds z * sqrt(w2 s2/(w2+s2)) > 0, so shift the
    # target to cancel it.
    pred = gp_predict(models["g"], [0.5])
    rate = min(max(pred.mean + con.nominal, 1 / 200), 1 - 1 / 200)
    w2 = rate * (1 - rate) / 100
    shift = norm.ppf(con.confidence) * math.sqrt(w2 * pred.variance / (w2 + pred.variance))
    space, con, models = _single_constraint_setup(-shift, 0.01, nominal=0.5,
                                                  confidence=0.9)

    objectives = ObjectiveSpec(("f1", "f2"), lambda X: np.tile([982.0, 10.0], (len(X), 1)))
    current = ApproximationSet((), (1200.0, 30.0))
    ei = expected_improvement([0.5], models, [con], current, objectives, 100, space)
    assert ei == pytest.approx(4360.0 * 0.5, rel=2e-2)


def test_expected_improvement_vanishes_at_deep_infeasibility():
    space, con, models = _single_constraint_setup(0.9, 1e-6, nominal=0.05,
                                                  confidence=0.9)
    objectives = ObjectiveSpec(("f",), lambda X: X[:, :1])
    current = ApproximationSet((), (1.0,))
    ei = expected_improvement([0.5], models, [con], current, objectives, 100, space)
    improvement = hypervolume_improvement(current, [0.5])
    assert ei < 1e-14 * improvement


def test_expected_improvement_nonnegative_everywhere():
    rng = np.random.default_rng(10)
    space, con, models = _single_constraint_setup(-0.05, 0.02)
    objectives = ObjectiveSpec(("f",), lambda X: X[:, :1])
    current = ApproximationSet(((DesignPoint((0.6,)), (0.6,)),), (1.0,))
    for _ in range(50):
        x = rng.random()
        assert expected_improvement([x], models, [con], current, objectives,
                                    100, space) >= 0.0


def test_expected_improvement_monotone_in_planned_samples_when_promising():
    # Bigger planned evaluations raise the chance of confirming feasibility
    # for points whose current quantile is still above zero (m < 0 < q).
    # Once q < 0 the point is already deemed feasible and the ordering can
    # reverse by ~1e-6, so that regime is excluded here.
    rng = np.random.default_rng(11)
    z = norm.ppf(0.9)
    checked = 0
    while checked < 200:
        m = -rng.uniform(0.01, 0.3)
        s2 = rng.uniform(1e-4, 0.05)
        if m + z * math.sqrt(s2) <= 0:
            continue
        checked += 1
        rate = min(max(m + 0.5, 1e-3), 1 - 1e-3)
        probs = []
        for n in (50, 200, 800, 3200):
            w2 = rate * (1 - rate) / n
            m_plus, s2_plus = quantile_update(m, s2, w2, 0.9)
            probs.append(prob_feasible_after(m_plus, s2_plus))
        assert all(b >= a - 1e-12 for a, b in zip(probs, probs[1:]))


def box(*dims):
    return DesignSpace(tuple(Dimension(f"x{i}", lo, hi) for i, (lo, hi) in enumerate(dims)))


def test_pso_finds_sphere_optimum():
    target = np.array([0.3, 0.7])

    def f(X):
        return -np.sum((X - target) ** 2, axis=1)

    best, value = pso_maximize(f, box((0, 1), (0, 1)), PsoConfig(seed=3))
    assert np.linalg.norm(best - target) < 1e-3
    assert value <= 0.0


def test_pso_constant_function():
    def f(X):
        return np.full(X.shape[0], 2.5)

    space = box((-1, 1), (-1, 1))
    best, value = pso_maximize(f, space, PsoConfig(seed=1))
    assert value == 2.5
    assert space.contains(best)


def test_pso_respects_bounds():
    def f(X):
        return X[:, 0] + X[:, 1]  # pushes towards the upper corner

    space = box((0, 2), (-1, 1))
    best, _ = pso_maximize(f, space, PsoConfig(seed=2))
    assert space.contains(best)
    assert best == pytest.approx([2.0, 1.0], abs=1e-9)


def test_pso_deterministic_given_seed():
    def f(X):
        return -np.sum(X**2, axis=1)

    space = box((-5, 5), (-5, 5))
    a = pso_maximize(f, space, PsoConfig(seed=11))
    b = pso_maximize(f, space, PsoConfig(seed=11))
    assert np.array_equal(a[0], b[0]) and a[1] == b[1]


def test_pso_negative_rastrigin_subset():
    def f(X):
        return -(10 * X.shape[1] + np.sum(X**2 - 10 * np.cos(2 * np.pi * X), axis=1))

    space = box((-5.12, 5.12), (-5.12, 5.12))
    wins = sum(
        np.linalg.norm(pso_maximize(f, space, PsoConfig(seed=s))[0]) < 1e-2
        for s in range(20)
    )
    assert wins == 20


def test_pso_config_validation():
    with pytest.raises(ValueError):
        PsoConfig(swarm_size=1)
    with pytest.raises(ValueError):
        PsoConfig(inertia=1.5)
    with pytest.raises(ValueError):
        PsoConfig(cognitive=0.0)
