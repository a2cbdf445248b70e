import math

import numpy as np
import pytest
from scipy.linalg import solve_triangular
from scipy.special import ndtr, ndtri
from scipy.stats import norm

from trialopt.acquisition import (
    PsoConfig,
    expected_improvement_batch,
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
from trialopt.gp import KernelParams, build_model, gp_predict_many
from trialopt.pareto import ApproximationSet, HviCalculator, nondominated_mask


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
    ei = expected_improvement_batch(np.array([[0.5]]), models, [con], current,
                                    objectives, 100, space)
    assert ei.tolist() == [0.0]


def test_expected_improvement_composes_verified_factors():
    # empty set, candidate objectives (982, 10), r = (1200, 30), one constraint
    # whose updated quantile state is (m+ = 0, s+ > 0) -> EI = 4360 * 0.5
    space, con, models = _single_constraint_setup(0.0, 0.01, nominal=0.5,
                                                  confidence=0.9)
    # pick the training target so the updated mean lands exactly on zero:
    # with m = 0 the update adds z * sqrt(w2 s2/(w2+s2)) > 0, so shift the
    # target to cancel it.
    (mean,), (var,) = gp_predict_many(models["g"], np.array([[0.5]]))
    rate = min(max(mean + con.nominal, 1 / 200), 1 - 1 / 200)
    w2 = rate * (1 - rate) / 100
    shift = norm.ppf(con.confidence) * math.sqrt(w2 * var / (w2 + var))
    space, con, models = _single_constraint_setup(-shift, 0.01, nominal=0.5,
                                                  confidence=0.9)

    objectives = ObjectiveSpec(("f1", "f2"), lambda X: np.tile([982.0, 10.0], (len(X), 1)))
    current = ApproximationSet((), (1200.0, 30.0))
    [ei] = expected_improvement_batch(np.array([[0.5]]), models, [con], current,
                                      objectives, 100, space)
    assert ei == pytest.approx(4360.0 * 0.5, rel=2e-2)


def test_expected_improvement_vanishes_at_deep_infeasibility():
    space, con, models = _single_constraint_setup(0.9, 1e-6, nominal=0.05,
                                                  confidence=0.9)
    objectives = ObjectiveSpec(("f",), lambda X: X[:, :1])
    current = ApproximationSet((), (1.0,))
    [ei] = expected_improvement_batch(np.array([[0.5]]), models, [con], current,
                                      objectives, 100, space)
    [improvement] = HviCalculator(current)(np.array([[0.5]]))
    assert ei < 1e-14 * improvement


def test_expected_improvement_nonnegative_everywhere():
    rng = np.random.default_rng(10)
    space, con, models = _single_constraint_setup(-0.05, 0.02)
    objectives = ObjectiveSpec(("f",), lambda X: X[:, :1])
    current = ApproximationSet(((DesignPoint((0.6,)), (0.6,)),), (1.0,))
    for _ in range(50):
        x = rng.random()
        [ei] = expected_improvement_batch(np.array([[x]]), models, [con], current,
                                          objectives, 100, space)
        assert ei >= 0.0


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


# A frozen copy of the EI batch as it was computed before the per-set and
# per-model caches: a fresh front and a +inf row for the set's own volume
# in every call, the kernel from a trailing-axis sum, the feasibility
# factors with their own where/errstate dance, and objectives and hypervolume
# improvements on the rows with a positive probability only. The library's
# batch must give the same bits.

def ref_front(aset):
    ref = np.array(aset.reference, dtype=float)
    rows = aset.objective_rows
    rows = rows[(rows < ref).all(axis=1)]
    if ref.size == 3:
        rows = rows[nondominated_mask(rows)]
    return ref, rows[np.lexsort(rows.T[::-1])]


def ref_sweep(rows, cand, ref):
    r1, r2 = ref[0], ref[1]
    k, c1, c2 = len(rows), cand[:, :1], cand[:, 1:2]
    slot = ((rows[:, 0] < c1) | ((rows[:, 0] == c1) & (rows[:, 1] < c2))).sum(
        axis=1, keepdims=True)
    pos = np.arange(k + 1)
    src, here = pos - (pos > slot), pos == slot
    f1 = np.where(here, c1, np.append(rows[:, 0], r1)[src])
    f2 = np.where(here, c2, np.append(rows[:, 1], r2)[src])
    prev = np.fmin.accumulate(np.hstack([np.full_like(c2, r2), f2[:, :-1]]), axis=1)
    terms = np.where(f2 < prev, (r1 - f1) * (prev - f2), 0.0)
    return np.add.accumulate(terms, axis=1)[:, -1]


def ref_volume(front, cand, ref):
    if ref.size == 2:
        return ref_sweep(front, cand, ref)
    beaten = (cand[None, :, :] <= front[:, None, :]).all(axis=2)
    levels = np.unique(np.concatenate([front[:, 2], cand[:, 2]]))
    levels = levels[levels < ref[2]]
    own = (cand[:, 2] == levels[:, None]) | (
        (front[:, None, 2] == levels[:, None, None]) & ~beaten).any(axis=1)
    tops, top = np.empty(own.shape), np.full(len(cand), ref[2])
    for k in reversed(range(len(levels))):
        tops[k] = top
        top = np.where(own[k], levels[k], top)
    total = np.zeros(len(cand))
    for k, z in enumerate(levels):
        merged = np.where(cand[:, 2:] <= z, cand[:, :2], np.inf)
        area = ref_sweep(front[front[:, 2] <= z], merged, ref)
        np.add(total, area * (tops[k] - z), out=total, where=own[k])
    return total


def ref_hvi(aset, C):
    ref, front = ref_front(aset)
    zero = ~(C < ref).all(axis=1) | (front[:, None, :] <= C).all(axis=2).any(axis=0)
    with np.errstate(invalid="ignore", over="ignore"):
        if ref.size == 1:
            gain = front[:, 0].min(initial=ref[0]) - C[:, 0]
        else:
            rows = np.where(zero[:, None], np.inf, C)
            totals = ref_volume(front, np.vstack([rows, np.full(ref.size, np.inf)]), ref)
            gain = totals[:-1] - totals[-1]
    return np.where(zero | ~(gain > 0.0), 0.0, gain)


def ref_predict(model, X):
    if model.n_train == 0:
        return np.zeros(len(X)), np.full(len(X), model.params.sigma)
    ls = np.asarray(model.params.lengthscales, dtype=float)
    d2 = ((model.inputs[:, None, :] - X[None, :, :]) / ls) ** 2
    k_star = model.params.sigma * np.exp(-d2.sum(axis=-1))
    v = solve_triangular(model.chol, k_star, lower=True)
    var = model.params.sigma - np.einsum("ij,ij->j", v, v)
    return k_star.T @ model.alpha, np.maximum(var, 0.0)


def ref_feasible(mean, var, omega2, p):
    denom = omega2 + var
    safe = np.where(denom > 0, denom, 1.0)
    s2_plus = np.where(denom > 0, var * var / safe, 0.0)
    m_plus = mean + ndtri(p) * np.sqrt(np.where(denom > 0, omega2 * var / safe, 0.0))
    s = np.sqrt(s2_plus)
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(s > 0, ndtr(-m_plus / np.where(s > 0, s, 1.0)),
                        (m_plus <= 0).astype(float))


def ref_ei_batch(X, models, constraints, current, objectives, planned_n, space):
    unit = (X - space.lower) / (space.upper - space.lower)
    prob = np.ones(X.shape[0])
    for con in constraints:
        mean, var = ref_predict(models[con.label], unit)
        rate = np.clip(mean + con.nominal, 1.0 / (2.0 * planned_n),
                       1.0 - 1.0 / (2.0 * planned_n))
        omega2 = rate * (1.0 - rate) / planned_n
        prob *= ref_feasible(mean, var, omega2, con.confidence)
    out = np.zeros(X.shape[0])
    live = np.flatnonzero(~(prob <= 0.0))
    if live.size:
        out[live] = ref_hvi(current, objectives(X[live])) * prob[live]
    return out, prob


def ei_cases():
    """Sets of 1-3 objectives (some empty), one or two constraints (some
    models with no training rows, some deeply infeasible), and candidate
    rows in the box, outside it, equal to a member or dominated by one,
    beside real-valued ones."""
    rng = np.random.default_rng(21)
    space = DesignSpace((Dimension("n", 10, 200, "integer"), Dimension("r", 0.5, 2.0)))
    formulas = {1: lambda X: (X[:, 0] * X[:, 1],),
                2: lambda X: (X[:, 0], 10.0 / X[:, 1]),
                3: lambda X: (X[:, 0], 10.0 / X[:, 1], X[:, 0] * X[:, 1])}
    for trial in range(36):
        formula = formulas[1 + trial % 3]
        objectives = ObjectiveSpec(tuple(f"f{i}" for i in range(1 + trial % 3)),
                                   lambda X, f=formula: np.column_stack(f(X)))
        members = np.column_stack([rng.integers(10, 201, 16).astype(float),
                                   rng.uniform(0.5, 2.0, 16)])
        objs = objectives(members)
        kept = zip(members, objs) if trial % 6 else ()
        current = ApproximationSet(tuple((DesignPoint(tuple(m)), tuple(o)) for m, o in kept),
                                   tuple(np.quantile(objs, 0.9, axis=0) + 1.0))
        X = np.column_stack([rng.uniform(10, 200, 40), rng.uniform(0.5, 2.0, 40)])
        X[:8:2] = np.round(X[:8:2])
        X[8:12] = members[:4]  # equal to a member
        X[12:16] = members[:4] + [5.0, -0.1]  # dominated by it
        X[16:18] = [200.0, 0.5]  # outside the box
        constraints, models = [], {}
        for j in range(1 + trial % 2):
            constraints.append(Constraint(f"g{j}", "h", nominal=0.1, confidence=0.9))
            n_train = 0 if trial % 5 == 4 and j == 0 else 12
            shift = 3.0 if trial % 4 == 3 else 0.0  # deeply infeasible
            params = KernelParams(float(rng.uniform(0.001, 0.1)),
                                  tuple(rng.uniform(0.1, 1.0, 2)))
            models[f"g{j}"] = build_model(rng.random((n_train, 2)),
                                          rng.normal(shift - 0.05, 0.05, n_train),
                                          np.full(n_train, 1e-3), params)
        yield X, models, constraints, current, objectives, int(rng.integers(20, 300)), space


def test_ei_batch_matches_the_frozen_formulation_bitwise():
    shapes, empty_set, untrained, dead, positive = set(), False, False, False, False
    for X, models, constraints, current, objectives, planned_n, space in ei_cases():
        got = expected_improvement_batch(X, models, constraints, current, objectives,
                                         planned_n, space)
        want, prob = ref_ei_batch(X, models, constraints, current, objectives,
                                  planned_n, space)
        assert np.array_equal(got.view(np.int64), want.view(np.int64))
        shapes.add((len(current.reference), len(constraints)))
        empty_set |= not len(current)
        untrained |= any(m.n_train == 0 for m in models.values())
        dead |= bool((prob <= 0.0).any())
        positive |= bool((want > 0.0).any())
    assert shapes == {(b, c) for b in (1, 2, 3) for c in (1, 2)}
    assert empty_set and untrained and dead and positive


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
