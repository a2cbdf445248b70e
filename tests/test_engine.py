import csv
import json
import logging
import math
import os
from dataclasses import replace

import numpy as np
import pytest

from trialopt.acquisition import PsoConfig, feasibility_quantile
from trialopt.cli import write_baseline_csv
from trialopt.domain import (
    Constraint,
    DesignPoint,
    DesignSpace,
    Dimension,
    EvaluationRecord,
    Hypothesis,
    ObjectiveSpec,
    Problem,
    mc_variance_of,
)
from trialopt.engine import (
    BudgetConfig,
    CheckpointError,
    RunState,
    _update_models,
    fixed_design_search,
    initial_design,
    load_checkpoint,
    recompute_feasible_set,
    resume_run,
    run,
    save_checkpoint,
    sobol_points,
)
from trialopt.montecarlo import Batch
from trialopt.pareto import hypervolume
from trialopt.simlib import get_scenario

FAST_PSO = PsoConfig(swarm_size=16, iterations=40)


def analytic_problem(n_hi=200.0, nominal=0.2, confidence=0.9, ref=200.0):
    space = DesignSpace((Dimension("n", 10, n_hi, "integer"),))
    hyp = Hypothesis("alt", {"delta": 0.5, "sigma": 1.0, "alpha": 0.05},
                     event="accept")
    con = Constraint("typeII", "alt", nominal=nominal, confidence=confidence)
    objectives = ObjectiveSpec(("per_arm_n",), lambda X: X[:, :1])
    problem = Problem(space, objectives, (con,), {"alt": hyp}, (ref,))
    sim = get_scenario("two_arm_normal").simulator(space)
    return problem, sim


def test_sobol_reexported_from_engine():
    assert sobol_points(1, 3).ravel().tolist() == [0.5, 0.75, 0.25]


def test_initial_design_in_bounds_with_integers():
    problem, _ = analytic_problem()
    points = initial_design(problem, 25)
    assert len(points) == 25
    for p in points:
        assert problem.space.contains(p.coords)
        assert float(p.coords[0]).is_integer()


def test_zero_iterations_evaluates_initial_design_only():
    problem, sim = analytic_problem()
    state = run(problem, sim, BudgetConfig(iterations=0, n_per_eval=50,
                                           initial_points=8), pso=FAST_PSO, seed=4)
    assert len(state.records) == 8
    assert all(r.iteration == 0 for r in state.records)
    assert len(state.trajectory) == 1
    assert state.total_samples == 8 * 50


def test_run_requires_valid_problem():
    # a problem is judged when built, so an invalid one never reaches ``run``
    problem, sim = analytic_problem()
    with pytest.raises(ValueError, match="reference point"):
        Problem(problem.space, problem.objectives, problem.constraints,
                problem.hypotheses, (1.0, 2.0))


def with_type_one_constraint(problem):
    """``problem`` plus a null hypothesis (delta = 0) under a type I constraint."""
    null = Hypothesis("null", {"delta": 0.0, "sigma": 1.0, "alpha": 0.05})
    return replace(
        problem,
        constraints=problem.constraints + (Constraint("typeI", "null", 0.1),),
        hypotheses={**problem.hypotheses, "null": null},
    )


def test_simulator_calls_per_hypothesis():
    one, sim = analytic_problem()
    for problem in (one, with_type_one_constraint(one)):
        hyps = problem.constrained_hypotheses
        seen = []

        def counting(point, hyp):
            seen.append(hyp)
            return sim(point, hyp)

        state = run(problem, counting, BudgetConfig(iterations=3, n_per_eval=40,
                                                    initial_points=6),
                    pso=FAST_PSO, seed=2)
        # one call per estimate, which prepares the batch of its 40 replicates
        assert len(seen) == (6 + 3) * len(hyps)
        assert state.total_samples == (6 + 3) * 40 * len(hyps)
        # one simulator receives each constrained hypothesis itself
        assert {h.name: h for h in seen} == {n: problem.hypotheses[n] for n in hyps}
        assert [r.hypothesis for r in state.records] == list(hyps) * (6 + 3)


def test_records_stay_in_bounds_with_integral_dims():
    problem, sim = analytic_problem()
    state = run(problem, sim, BudgetConfig(iterations=5, n_per_eval=40,
                                           initial_points=6), pso=FAST_PSO, seed=9)
    for rec in state.records:
        assert problem.space.contains(rec.point.coords)
        assert float(rec.point.coords[0]).is_integer()


def test_sample_cap_stops_iterating():
    problem, sim = analytic_problem()
    budget = BudgetConfig(iterations=50, n_per_eval=40, initial_points=6,
                          max_total_samples=6 * 40 + 2 * 40)
    state = run(problem, sim, budget, pso=FAST_PSO, seed=5)
    assert state.iteration == 2
    assert state.total_samples == 8 * 40


def test_worker_invariance_of_run():
    problem, sim = analytic_problem()
    budget = BudgetConfig(iterations=2, n_per_eval=30, initial_points=6)
    a = run(problem, sim, budget, pso=FAST_PSO, seed=3)
    b = run(problem, sim, budget, pso=FAST_PSO, seed=3)
    assert a.records == b.records
    assert a.trajectory == b.trajectory


def test_noise_free_always_reject_trajectory_non_decreasing():
    problem, _ = analytic_problem(nominal=0.5)

    def always_reject(point, hyp):
        # the "accept" event therefore never occurs
        return Batch((1,), lambda rng, row: None, lambda rows: np.ones(len(rows), dtype=bool))

    state = run(problem, always_reject,
                BudgetConfig(iterations=10, n_per_eval=100, initial_points=6),
                pso=FAST_PSO, seed=1)
    assert all(r.successes == 0 for r in state.records)
    traj = state.trajectory
    assert len(traj) == 11
    assert all(b >= a for a, b in zip(traj, traj[1:]))
    assert len(state.approx_set) >= 1


def _constant_rate_state(problem, points_successes, n=100):
    """RunState with hand-set records (no simulation)."""
    state = RunState(problem=problem, budget=BudgetConfig(n_per_eval=n),
                     pso=FAST_PSO, master_seed=0)
    for x, successes in points_successes:
        state.records.append(EvaluationRecord(
            point=DesignPoint((x,)), hypothesis="alt", n_samples=n,
            successes=successes, seed=0, iteration=0,
        ))
    return state


def test_feasible_point_evicted_by_pessimistic_neighbor():
    # regression for the set-shrinking behavior: a point deemed feasible can
    # leave the set after a nearby pessimistic evaluation revises the model
    problem, _ = analytic_problem(nominal=0.5, n_hi=110.0)
    good = [(100.0, 40), (20.0, 65), (60.0, 62)]
    state = _constant_rate_state(problem, good)
    _update_models(state, refit=True)
    members = {p.coords for p, _ in state.approx_set.members}
    assert (100.0,) in members

    for x in (98.0, 99.0, 101.0):
        state.records.append(EvaluationRecord(
            point=DesignPoint((x,)), hypothesis="alt", n_samples=100,
            successes=72, seed=0, iteration=1,
        ))
    _update_models(state, refit=True)
    members = {p.coords for p, _ in state.approx_set.members}
    assert (100.0,) not in members


def test_recompute_feasible_set_empty_when_nothing_feasible():
    problem, _ = analytic_problem(nominal=0.2)
    state = _constant_rate_state(problem, [(50.0, 80), (120.0, 75)])
    _update_models(state, refit=True)
    assert len(state.approx_set) == 0
    assert hypervolume(state.approx_set) == 0.0


def test_checkpoint_roundtrip_identity(tmp_path):
    problem, sim = analytic_problem()
    budget = BudgetConfig(iterations=3, n_per_eval=30, initial_points=6)
    state = run(problem, sim, budget, pso=FAST_PSO, seed=8)
    path = tmp_path / "ckpt.bin"
    save_checkpoint(state, path, config_hash="abc")
    data = load_checkpoint(path)
    assert data.config_hash == "abc"
    assert data.records == tuple(state.records)
    assert data.params == state.params
    assert data.trajectory == tuple(state.trajectory)

    resumed = resume_run(data, problem, sim, budget, pso=FAST_PSO, iterations=0)
    assert resumed.records == state.records
    assert resumed.trajectory == state.trajectory
    assert resumed.params == state.params
    assert resumed.approx_set == state.approx_set


def test_failed_checkpoint_write_keeps_the_old_checkpoint(tmp_path, monkeypatch):
    problem, sim = analytic_problem()
    budget = BudgetConfig(iterations=1, n_per_eval=30, initial_points=6)
    state = run(problem, sim, budget, pso=FAST_PSO, seed=8)
    path = tmp_path / "checkpoint.bin"
    save_checkpoint(state, path, config_hash="old")
    before = path.read_bytes()

    def refuse(src, dst):
        raise OSError("rename refused")

    monkeypatch.setattr(os, "replace", refuse)
    with pytest.raises(OSError, match="rename refused"):
        save_checkpoint(state, path, config_hash="new")
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["checkpoint.bin"]


def test_resume_equals_straight_run(tmp_path):
    problem, sim = analytic_problem()
    budget = BudgetConfig(iterations=6, n_per_eval=30, initial_points=6)
    straight = run(problem, sim, budget, pso=FAST_PSO, seed=13)

    half = BudgetConfig(iterations=3, n_per_eval=30, initial_points=6)
    first = run(problem, sim, half, pso=FAST_PSO, seed=13)
    path = tmp_path / "ckpt.bin"
    save_checkpoint(first, path)
    resumed = resume_run(load_checkpoint(path), problem, sim, half, pso=FAST_PSO,
                         iterations=3)

    assert resumed.records == straight.records
    assert resumed.trajectory == straight.trajectory
    assert resumed.params == straight.params


def test_resume_with_relaxed_nominal_grows_feasible_set(tmp_path):
    problem, sim = analytic_problem(nominal=0.2)
    budget = BudgetConfig(iterations=4, n_per_eval=50, initial_points=8)
    state = run(problem, sim, budget, pso=FAST_PSO, seed=21)
    path = tmp_path / "ckpt.bin"
    save_checkpoint(state, path)

    relaxed = (Constraint("typeII", "alt", nominal=0.3,
                          confidence=problem.constraints[0].confidence),)
    resumed = resume_run(load_checkpoint(path), replace(problem, constraints=relaxed),
                         sim, budget, pso=FAST_PSO, iterations=0)
    before = {p.coords for p, _ in state.approx_set.members}
    # same GP hyperparameters, relaxed bound: feasibility can only widen,
    # so every previously feasible point stays feasible
    feasible_after = set()
    for rec in resumed.records:
        coords = rec.point.coords
        from trialopt.gp import gp_predict_many
        from scipy.stats import norm as _norm
        (mean,), (var,) = gp_predict_many(
            resumed.models["typeII"], problem.space.normalize(np.array(coords)).reshape(1, -1))
        q = mean + _norm.ppf(0.9) * math.sqrt(var)
        if q <= 0:
            feasible_after.add(coords)
    assert before <= feasible_after
    assert resumed.records == state.records  # no new simulation happened


def test_resume_rejects_renamed_constraints(tmp_path):
    problem, sim = analytic_problem()
    state = run(problem, sim, BudgetConfig(iterations=0, initial_points=4,
                                           n_per_eval=20), pso=FAST_PSO, seed=1)
    path = tmp_path / "ckpt.bin"
    save_checkpoint(state, path)
    with pytest.raises(CheckpointError,
                       match=r"constraint\(s\) \['typeII'\] that the problem lacks"):
        resume_run(load_checkpoint(path),
                   replace(problem, constraints=(Constraint("other", "alt", 0.2),)),
                   sim, BudgetConfig(iterations=0))


def test_load_checkpoint_errors(tmp_path):
    missing = tmp_path / "nope.bin"
    with pytest.raises(CheckpointError):
        load_checkpoint(missing)
    bad = tmp_path / "bad.bin"
    bad.write_text("{not json")
    with pytest.raises(CheckpointError):
        load_checkpoint(bad)
    wrong = tmp_path / "wrong.bin"
    wrong.write_text('{"format": "something-else", "version": 1}')
    with pytest.raises(CheckpointError):
        load_checkpoint(wrong)
    old = tmp_path / "old.bin"
    old.write_text('{"format": "trialopt-checkpoint", "version": 99}')
    with pytest.raises(CheckpointError):
        load_checkpoint(old)
    huge = tmp_path / "huge.bin"  # past Python's 4300-digit limit on int parsing
    huge.write_text('{"format": "trialopt-checkpoint", "master_seed": 1' + "0" * 5000 + "}")
    with pytest.raises(CheckpointError, match="corrupt checkpoint"):
        load_checkpoint(huge)


@pytest.mark.parametrize("key", ["eval_counter", "total_samples"])
def test_load_checkpoint_refuses_counters_that_disagree_with_the_records(tmp_path, key):
    problem, sim = analytic_problem()
    state = run(problem, sim, BudgetConfig(iterations=0, n_per_eval=30, initial_points=6),
                pso=FAST_PSO, seed=8)
    path = tmp_path / "ckpt.bin"
    save_checkpoint(state, path)
    doc = json.loads(path.read_text())
    # the counters the checkpoint writes are those of its records
    assert (doc["eval_counter"], doc["total_samples"]) == (6, 6 * 30) == (
        len(state.records), state.total_samples)
    doc[key] += 1
    path.write_text(json.dumps(doc))
    with pytest.raises(CheckpointError, match="corrupt checkpoint .*disagree with the 6 records"):
        load_checkpoint(path)


def test_fixed_design_confidence_half_collapses_to_raw_estimate():
    problem, _ = analytic_problem(nominal=0.5)

    def coin(point, hyp):
        def fill(rng, row):
            row[0] = rng.random()

        return Batch((1,), fill, lambda rows: rows[:, 0] < 0.5)

    aset, records = fixed_design_search(problem, coin, count=30, n_samples=51,
                                        confidence=0.5, seed=6)
    surviving = {p.coords for p, _ in aset.members}
    by_point = {}
    for rec in records:
        by_point[rec.point.coords] = rec.estimate
    raw_ok = {c for c, est in by_point.items() if est < 0.5}
    # the pareto filter keeps the minimal n among survivors (1-D objective)
    assert surviving <= raw_ok
    if raw_ok:
        assert min(raw_ok)[0] == min(surviving)[0]


def test_fixed_design_all_infeasible_gives_empty_set():
    problem, _ = analytic_problem(nominal=0.2)

    def never_reject(point, hyp):
        # the tallied "accept" event always occurs: estimate 1
        return Batch((1,), lambda rng, row: None, lambda rows: np.zeros(len(rows), dtype=bool))

    aset, _ = fixed_design_search(problem, never_reject, count=20, n_samples=200,
                                  seed=3)
    assert len(aset) == 0
    assert hypervolume(aset) == 0.0


def test_fixed_design_survivors_bound_below_nominal():
    problem, sim = analytic_problem(nominal=0.2)
    aset, records = fixed_design_search(problem, sim, count=40, n_samples=100,
                                        confidence=0.975, seed=11)
    by_point = {}
    for rec in records:
        by_point[rec.point.coords] = rec
    for point, _ in aset.members:
        rec = by_point[point.coords]
        upper = rec.estimate + 1.959963984540054 * math.sqrt(rec.mc_variance)
        assert upper < 0.2


def test_fixed_design_judges_and_reports_a_repeated_point_on_its_pooled_counts(
        tmp_path):
    # 20 Sobol points snapped onto the 5 integers of [10, 14] repeat each one
    space = DesignSpace((Dimension("n", 10, 14, "integer"),))
    hyp = Hypothesis("alt", {}, event="accept")
    con = Constraint("typeII", "alt", nominal=0.5, confidence=0.6)
    # n and -n: every survivor is nondominated, so the set shows each verdict
    objectives = ObjectiveSpec(("n", "minus_n"), lambda X: np.hstack([X, -X]))
    problem = Problem(space, objectives, (con,), {"alt": hyp}, (15.0, -9.0))

    def coin(point, hyp):
        def fill(rng, row):
            row[0] = rng.random()

        return Batch((1,), fill, lambda rows: rows[:, 0] < 0.5)

    aset, records = fixed_design_search(problem, coin, count=20, n_samples=31,
                                        confidence=0.6, seed=4)
    pooled = {}
    for rec in records:
        s, n = pooled.get(rec.point.coords, (0, 0))
        pooled[rec.point.coords] = (s + rec.successes, n + rec.n_samples)
    assert len(pooled) == 5 and len(records) == 20
    expected = {c for c, (s, n) in pooled.items()
                if feasibility_quantile(s / n, mc_variance_of(s, n), 0.6) < 0.5}
    assert {p.coords for p, _ in aset.members} == expected
    assert expected  # the check above decides at least one survivor

    path = tmp_path / "pareto.csv"
    write_baseline_csv(path, problem, aset, records)
    with open(path) as fh:
        rows = list(csv.DictReader(fh))
    assert [(float(r["n"]),) for r in rows] == [p.coords for p, _ in aset.members]
    for r in rows:
        s, n = pooled[(float(r["n"]),)]
        assert int(r["n[typeII]"]) == n > 31
        assert float(r["estimate[typeII]"]) == s / n


def _switching_run(switch: bool, caplog):
    """Run one iteration on a simulator that never reports the tallied event
    during the initial design and, when ``switch``, always reports it after."""
    problem, _ = analytic_problem(nominal=0.5)
    calls = []

    def stub(point, hyp):
        calls.append(point)
        event = switch and len(calls) > 6
        return Batch((1,), lambda rng, row: None,
                     lambda rows: np.full(len(rows), not event))

    with caplog.at_level(logging.WARNING, logger="trialopt.engine"):
        run(problem, stub, BudgetConfig(iterations=1, n_per_eval=100,
                                        initial_points=6), pso=FAST_PSO, seed=1)
    return [r for r in caplog.records if "sd from GP prediction" in r.getMessage()]


def test_diagnose_warns_when_the_realized_rate_is_far_from_the_prediction(caplog):
    warnings = _switching_run(True, caplog)
    assert len(warnings) == 1
    assert "iteration 1: realized 'typeII' value 0.5" in warnings[0].getMessage()


def test_diagnose_is_silent_when_the_realized_rate_matches_the_prediction(caplog):
    assert _switching_run(False, caplog) == []
