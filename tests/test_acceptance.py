"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines as they complete. The heavier end-to-end criteria take a few minutes in
total; every tolerance is pinned here, nothing is calibrated at runtime.
"""

import math
import time

import numpy as np
import pytest
from scipy.stats import norm

from trialopt.acquisition import PsoConfig, pso_maximize, quantile_update
from trialopt.domain import (
    Constraint,
    DesignPoint,
    DesignSpace,
    Dimension,
    Hypothesis,
    ObjectiveSpec,
    Problem,
)
from trialopt.engine import BudgetConfig, fixed_design_search, run, sobol_points
from trialopt.gp import KernelParams, build_model, gp_predict_many, log_marginal_likelihood
from trialopt.montecarlo import Batch, mc_estimate
from trialopt.pareto import ApproximationSet, dominates, hypervolume
from trialopt.simlib import get_scenario


def report(num: int, desc: str, ok: bool, detail: str = ""):
    line = f"{'PASS' if ok else 'FAIL'} criterion {num:2d}: {desc}"
    if detail:
        line += f" [{detail}]"
    print(line)
    assert ok, line


def as_set(objs, ref):
    members = tuple((DesignPoint(tuple(o)), tuple(o)) for o in objs)
    return ApproximationSet(members, tuple(ref))


def test_criterion_01_hypervolume_fixture():
    aset = as_set([(589, 24), (705, 20), (810, 12), (982, 10)], (1200, 30))
    value = hypervolume(aset)
    report(1, "hypervolume of the four-point fixture equals 9202 exactly",
           value == 9202.0, f"H={value!r}")


def test_criterion_02_dominance_fixtures():
    ok = (dominates((200, 10), (240, 10))
          and not dominates((200, 10), (160, 13))
          and not dominates((160, 13), (200, 10)))
    report(2, "dominance fixtures for (2n, k) pairs behave as printed", ok)


def test_criterion_03_gp_against_dense_oracle():
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(2, 51))
        d = int(rng.integers(1, 4))
        X = rng.random((n, d))
        params = KernelParams(float(rng.uniform(0.1, 2.0)),
                              tuple(rng.uniform(0.2, 1.5, d)))
        y = rng.standard_normal(n)
        noise = rng.uniform(1e-4, 0.05, n)
        model = build_model(X, y, noise, params)
        x_star = rng.random(d)

        K = np.array([[params.sigma * math.exp(-float(np.sum(((a - b) /
                     np.array(params.lengthscales)) ** 2))) for b in X] for a in X])
        A = K + np.diag(noise)
        Ainv = np.linalg.inv(A)
        k_star = np.array([params.sigma * math.exp(-float(np.sum(((a - x_star) /
                          np.array(params.lengthscales)) ** 2))) for a in X])
        mean_ref = k_star @ Ainv @ y
        var_ref = params.sigma - k_star @ Ainv @ k_star
        _, logdet = np.linalg.slogdet(A)
        logml_ref = (-0.5 * y @ Ainv @ y - 0.5 * logdet
                     - 0.5 * n * math.log(2 * math.pi))

        (mean,), (var,) = gp_predict_many(model, x_star.reshape(1, -1))
        logml = log_marginal_likelihood(X, y, noise, params)
        worst = max(worst, abs(mean - mean_ref),
                    abs(var - max(var_ref, 0.0)),
                    abs(logml - logml_ref))
    dense_ok = worst < 1e-8

    sigma, omega2, yv = 0.85, 0.04, 0.6
    model = build_model([[0.3]], [yv], [omega2], KernelParams(sigma, (0.5,)))
    (mean,), (var,) = gp_predict_many(model, np.array([[0.3]]))
    closed_ok = (abs(mean - sigma * yv / (sigma + omega2)) < 1e-12
                 and abs(var - (sigma - sigma**2 / (sigma + omega2))) < 1e-12)
    report(3, "GP posterior and log marginal likelihood match dense oracles",
           dense_ok and closed_ok, f"worst dense error {worst:.2e}")


def test_criterion_04_quantile_update_algebra():
    rng = np.random.default_rng(77)
    worst = 0.0
    for _ in range(1000):
        m = rng.normal()
        s2 = rng.uniform(1e-6, 2.0)
        w2 = rng.uniform(0.0, 2.0)
        p = rng.uniform(0.51, 0.99)
        m_plus, s2_plus = quantile_update(m, s2, w2, p)
        worst = max(
            worst,
            abs(s2_plus - s2 * s2 / (w2 + s2)),
            abs(m_plus - (m + norm.ppf(p) * math.sqrt(w2 * s2 / (w2 + s2)))),
        )
    algebra_ok = worst < 1e-12

    m, s2, p = -0.2, 0.04, 0.9
    m_inf, s2_inf = quantile_update(m, s2, 1e12, p)
    m_zero, s2_zero = quantile_update(m, s2, 0.0, p)
    limits_ok = (abs(m_inf - (m + norm.ppf(p) * math.sqrt(s2))) < 1e-6
                 and s2_inf < 1e-6
                 and abs(m_zero - m) < 1e-6 and abs(s2_zero - s2) < 1e-6)
    report(4, "quantile-update algebra exact on 1000 tuples and both limits",
           algebra_ok and limits_ok, f"worst algebra error {worst:.2e}")


def test_criterion_05_mc_calibration_and_worker_invariance():
    q = 0.3
    point, hyp = DesignPoint((1.0,)), Hypothesis("h", {})

    def sim(point, hyp):
        def fill(rng, row):
            row[0] = rng.random()

        return Batch((1,), fill, lambda rows: rows[:, 0] < q)

    hits = 0
    for i in range(1000):
        est = mc_estimate(sim, point, hyp, 1000, seed=2025, eval_index=i)
        half = 1.96 * math.sqrt(est.variance)
        hits += est.mean - half <= q <= est.mean + half
    coverage = hits / 1000
    coverage_ok = 0.93 <= coverage <= 0.97

    invariant = all(
        mc_estimate(sim, point, hyp, 2000, seed=7, workers=w)
        == mc_estimate(sim, point, hyp, 2000, seed=7, workers=1)
        for w in (1, 4, 16)
    )
    report(5, "MC interval coverage in [0.93, 0.97] and worker invariance",
           coverage_ok and invariant, f"coverage {coverage:.3f}")


def _analytic_problem():
    scenario = get_scenario("two_arm_normal")
    space = DesignSpace((Dimension("n", 10, 200, "integer"),))
    hyp = Hypothesis("alt", {"delta": 0.5, "sigma": 1.0, "alpha": 0.05},
                     event="accept")
    con = Constraint("typeII", "alt", nominal=0.2, confidence=0.9)
    objectives = ObjectiveSpec(("per_arm_n",), lambda X: X[:, :1])
    problem = Problem(space, objectives, (con,), {"alt": hyp}, (200.0,))
    return problem, scenario


def test_criterion_06_end_to_end_analytic_problem():
    problem, scenario = _analytic_problem()
    sim = scenario.simulator(problem.space)
    hp = problem.hypotheses["alt"].params
    budget = BudgetConfig(iterations=20, n_per_eval=500, initial_points=10)
    t0 = time.perf_counter()
    wins = 0
    details = []
    for seed in range(10):
        state = run(problem, sim, budget, seed=seed)
        if not state.approx_set.members:
            details.append(f"s{seed}:empty")
            continue
        n_best = state.approx_set.members[0][0].coords[0]
        power = scenario.rejection_rate({"n": n_best}, hp)
        ok = 58 <= n_best <= 76 and power >= 0.78
        wins += ok
        details.append(f"s{seed}:n={n_best:.0f},pow={power:.3f}")
    elapsed = time.perf_counter() - t0
    report(6, "analytic per-arm-n search lands in [58, 76] with power >= 0.78 "
              "in >= 9/10 runs under 2 minutes",
           wins >= 9 and elapsed < 120,
           f"{wins}/10 in {elapsed:.0f}s; " + " ".join(details))


def _cluster_problem():
    scenario = get_scenario("cluster_rct")
    space = DesignSpace((Dimension("n", 100, 500, "integer"),
                         Dimension("k", 3, 30, "integer")))
    hp = {"beta1": 1.10, "sigma_t2": 0.19, "sigma_d2": 0.37,
          "sigma_w2": 3.29, "alpha": 0.05}
    hyp = Hypothesis("alt", hp, event="accept")
    con = Constraint("typeII", "alt", nominal=0.1, confidence=0.975)
    objectives = ObjectiveSpec(("participants", "providers"),
                               lambda X: np.column_stack([2.0 * X[:, 0], 3.0 * X[:, 1]]))
    problem = Problem(space, objectives, (con,), {"alt": hyp}, (1100.0, 95.0))
    return problem, scenario, hp


def test_criterion_07_cluster_analog_beats_fixed_design():
    problem, scenario, hp = _cluster_problem()
    sim = scenario.simulator(problem.space)
    budget = BudgetConfig(iterations=30, n_per_eval=100, initial_points=20)
    t0 = time.perf_counter()
    wins = 0
    details = []
    for seed in range(10):
        state = run(problem, sim, budget, seed=seed)
        aset, _ = fixed_design_search(problem, sim, count=50, n_samples=100,
                                      seed=seed + 1000)
        h_ego = state.trajectory[-1]
        h_fixed = hypervolume(aset)
        betas = [
            1.0 - scenario.rejection_rate(dict(zip(problem.space.names, p.coords)), hp)
            for p, _ in state.approx_set.members
        ]
        ok = (len(state.approx_set) >= 3
              and betas and max(betas) <= 0.13
              and h_ego >= h_fixed)
        wins += ok
        details.append(
            f"s{seed}:|A|={len(state.approx_set)},maxbeta="
            f"{max(betas) if betas else float('nan'):.3f},"
            f"H={h_ego:.0f}vs{h_fixed:.0f}"
        )
    elapsed = time.perf_counter() - t0
    report(7, "cluster analog: solutions within beta 0.13, >= 3 of them, and "
              "hypervolume >= fixed design in >= 8/10 runs under 10 minutes",
           wins >= 8 and elapsed < 600,
           f"{wins}/10 in {elapsed:.0f}s; " + "; ".join(details))


def test_criterion_08_trajectory_properties():
    # noisy run: the trajectory is recorded each iteration and may decrease
    problem, scenario = _analytic_problem()
    sim = scenario.simulator(problem.space)
    noisy = run(problem, sim,
                BudgetConfig(iterations=8, n_per_eval=50, initial_points=6),
                pso=PsoConfig(swarm_size=16, iterations=40), seed=3)
    recorded_ok = len(noisy.trajectory) == 8 + 1

    def always_reject(point, hyp):
        return Batch((1,), lambda rng, row: None, lambda rows: np.ones(len(rows), dtype=bool))

    relaxed = Problem(problem.space, problem.objectives,
                      (Constraint("typeII", "alt", nominal=0.5, confidence=0.9),),
                      problem.hypotheses, problem.reference_point)
    clean = run(relaxed, always_reject,
                BudgetConfig(iterations=10, n_per_eval=100, initial_points=6),
                pso=PsoConfig(swarm_size=16, iterations=40), seed=1)
    monotone_ok = all(b >= a for a, b in
                      zip(clean.trajectory, clean.trajectory[1:]))
    report(8, "hypervolume trajectory recorded per iteration; non-decreasing "
              "in the noise-free always-reject case",
           recorded_ok and monotone_ok,
           f"noise-free trajectory {clean.trajectory}")


def test_criterion_09_pso_benchmarks():
    target = np.array([0.3, 0.7])
    sphere_space = DesignSpace((Dimension("x", 0, 1), Dimension("y", 0, 1)))

    def neg_sphere(X):
        return -np.sum((X - target) ** 2, axis=1)

    sphere_ok = all(
        np.linalg.norm(pso_maximize(neg_sphere, sphere_space,
                                    PsoConfig(seed=s))[0] - target) < 1e-3
        for s in range(10)
    )

    rast_space = DesignSpace((Dimension("x", -5.12, 5.12),
                              Dimension("y", -5.12, 5.12)))

    def neg_rastrigin(X):
        return -(10 * X.shape[1]
                 + np.sum(X**2 - 10 * np.cos(2 * np.pi * X), axis=1))

    wins = sum(
        np.linalg.norm(pso_maximize(neg_rastrigin, rast_space,
                                    PsoConfig(seed=s))[0]) < 1e-2
        for s in range(100)
    )
    report(9, "PSO: sphere optimum within 1e-3 always, Rastrigin optimum "
              "within 1e-2 in >= 95/100 seeded runs",
           sphere_ok and wins >= 95, f"rastrigin wins {wins}/100")


def test_criterion_10_sobol_bit_level():
    from test_sobol import _oracle_point

    ok = True
    for d in (1, 2):
        pts = sobol_points(d, 8)
        expected = np.array([_oracle_point(i, d) for i in range(1, 9)])
        ok &= np.array_equal(pts, expected)
    report(10, "first 8 Sobol points in d=1 and d=2 match the bit-level "
               "direction-number oracle exactly", ok)


def test_criterion_11_determinism_and_resume(tmp_path):
    import json

    from trialopt.cli import cmd_run, main

    def config(iterations):
        return {
            "scenario": "two_arm_normal",
            "design_space": [{"name": "n", "low": 10, "up": 200,
                              "kind": "integer"}],
            "hypotheses": [{"name": "alt",
                            "params": {"delta": 0.5, "sigma": 1.0, "alpha": 0.05},
                            "event": "accept"}],
            "constraints": [{"label": "typeII", "hypothesis": "alt",
                             "nominal": 0.2, "confidence": 0.9}],
            "objectives": {"formula": "per_arm_n"},
            "reference_point": [200],
            "budget": {"initial_points": 6, "n_per_eval": 20,
                       "iterations": iterations},
            "pso": {"swarm_size": 12, "iterations": 30},
            "seed": 0,
        }

    ok = True
    for seed in range(5):
        base = tmp_path / f"seed{seed}"
        base.mkdir()
        cfg20, cfg10 = config(20), config(10)
        cfg20["seed"] = cfg10["seed"] = seed
        (base / "c20.json").write_text(json.dumps(cfg20))
        (base / "c10.json").write_text(json.dumps(cfg10))
        assert cmd_run(str(base / "c20.json"), str(base / "straight")) == 0
        assert cmd_run(str(base / "c10.json"), str(base / "resumed")) == 0
        assert main(["resume", str(base / "resumed" / "checkpoint.bin"),
                     "--iterations", "10"]) == 0
        same = ((base / "straight" / "evals.log").read_bytes()
                == (base / "resumed" / "evals.log").read_bytes())
        ok &= same
    report(11, "run(20) equals run(10)+resume(10) byte-identically on the "
               "evaluation log for 5 seeds", ok)


CROSS_VALIDATION_POINTS = {
    "two_arm_normal": (
        {"delta": 0.5, "sigma": 1.0, "alpha": 0.05},
        {"delta": 0.0, "sigma": 1.0, "alpha": 0.05},  # null (size) point
        [{"n": 20}, {"n": 63}, {"n": 120}, {"n": 190}],
        {"n": 63},
    ),
    "two_arm_binary": (
        {"p0": 0.1, "p1": 0.25, "alpha": 0.05},
        {"p0": 0.2, "p1": 0.2, "alpha": 0.05},
        [{"n": 30}, {"n": 80}, {"n": 135}, {"n": 190}],
        {"n": 100},
    ),
    "cluster_rct": (
        {"beta1": 1.10, "sigma_t2": 0.19, "sigma_d2": 0.37, "sigma_w2": 3.29,
         "alpha": 0.05},
        {"beta1": 0.0, "sigma_t2": 0.19, "sigma_d2": 0.37, "sigma_w2": 3.29,
         "alpha": 0.05},
        [{"n": 100, "k": 5}, {"n": 250, "k": 10}, {"n": 420, "k": 20},
         {"n": 120, "k": 3}],
        {"n": 250, "k": 10},
    ),
    "co_primary": (
        {"beta1_f": 1.10, "beta1_d": 1.10, "rho_w": 0.9, "rho_t": 0.9,
         "rho_d": 0.9, "sigma_t2": 0.19, "sigma_d2": 0.37, "sigma_w2": 3.29,
         "alpha": 0.05},
        {"beta1_f": 0.0, "beta1_d": 0.0, "rho_w": 0.9, "rho_t": 0.9,
         "rho_d": 0.9, "sigma_t2": 0.19, "sigma_d2": 0.37, "sigma_w2": 3.29,
         "alpha": 0.05},
        [{"n": 100, "k": 5}, {"n": 200, "k": 10}, {"n": 300, "k": 15},
         {"n": 160, "k": 8}],
        {"n": 150, "k": 6},
    ),
    "pilot_either": (
        {"beta1_f": 1.10, "beta1_d": 1.10, "rho_w": 0.9, "rho_t": 0.9,
         "rho_d": 0.9, "sigma_t2": 0.19, "sigma_d2": 0.37, "sigma_w2": 3.29},
        {"beta1_f": 0.0, "beta1_d": 0.0, "rho_w": 0.9, "rho_t": 0.9,
         "rho_d": 0.9, "sigma_t2": 0.19, "sigma_d2": 0.37, "sigma_w2": 3.29},
        [{"n1": 60, "k": 3, "r": 0.8, "j": 6, "a": 0.1},
         {"n1": 80, "k": 4, "r": 1.0, "j": 9, "a": 0.15},
         {"n1": 100, "k": 10, "r": 1.5, "j": 20, "a": 0.2},
         {"n1": 50, "k": 2, "r": 0.5, "j": 3, "a": 0.05}],
        {"n1": 80, "k": 4, "r": 1.0, "j": 9, "a": 0.15},
    ),
}


def test_criterion_12_scenario_cross_validation():
    n_samples = 100_000
    failures = []
    for name, (alt_hp, null_hp, points, null_point) in (
            CROSS_VALIDATION_POINTS.items()):
        scenario = get_scenario(name)
        checks = [(x, alt_hp) for x in points] + [(null_point, null_hp)]
        for i, (x, hp) in enumerate(checks):
            space = DesignSpace(tuple(Dimension(d, 0.0, 1e9) for d in x))
            est = mc_estimate(scenario.simulator(space), DesignPoint(tuple(x.values())),
                              Hypothesis("h", hp), n_samples, seed=5000 + i)
            oracle = scenario.rejection_rate(x, hp)
            se = math.sqrt(max(oracle * (1 - oracle), 1e-12) / n_samples)
            if abs(est.mean - oracle) >= 3 * se:
                failures.append(
                    f"{name}@{x}: mc={est.mean:.5f} oracle={oracle:.5f} "
                    f"({abs(est.mean - oracle) / se:.2f} se)"
                )
    report(12, "every scenario's MC estimate at N=1e5 within 3 SE of its "
               "independent oracle at 5 points including a null point",
           not failures, "; ".join(failures) if failures else "25 checks")
