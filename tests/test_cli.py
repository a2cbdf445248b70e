import copy
import csv
import fcntl
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trialopt import cli, engine
from trialopt.cli import (
    ConfigError,
    RunLock,
    budget_from_config,
    canonical_dumps,
    cmd_baseline,
    cmd_run,
    config_hash,
    load_config,
    main,
    normalize_config,
)
from trialopt.engine import BudgetConfig
from trialopt.montecarlo import SimulationError
from trialopt.simlib import get_scenario


def analytic_config(**overrides):
    cfg = {
        "scenario": "two_arm_normal",
        "design_space": [{"name": "n", "low": 10, "up": 200, "kind": "integer"}],
        "hypotheses": [{"name": "alt",
                        "params": {"delta": 0.5, "sigma": 1.0, "alpha": 0.05},
                        "event": "accept"}],
        "constraints": [{"label": "typeII", "hypothesis": "alt",
                         "nominal": 0.2, "confidence": 0.9}],
        "objectives": {"formula": "per_arm_n"},
        "reference_point": [200],
        "budget": {"initial_points": 6, "n_per_eval": 30, "iterations": 3},
        "pso": {"swarm_size": 16, "iterations": 40},
        "seed": 7,
    }
    cfg.update(overrides)
    return cfg


def write_config(tmp_path, name="config.json", **overrides):
    path = tmp_path / name
    path.write_text(json.dumps(analytic_config(**overrides)))
    return path


def read_csv(path):
    with open(path) as fh:
        return list(csv.reader(fh))


def test_run_produces_all_outputs(tmp_path):
    cfg = write_config(tmp_path)
    out = tmp_path / "out"
    assert main(["run", str(cfg), "--out", str(out)]) == 0
    for name in ("config.normalized", "evals.log", "pareto.csv",
                 "trajectory.csv", "checkpoint.bin", "report.txt"):
        assert (out / name).exists(), name
    rows = read_csv(out / "trajectory.csv")
    assert rows[0] == ["iteration", "hypervolume"]
    assert len(rows) - 1 == 3 + 1  # initial design entry plus one per iteration
    assert not (out / ".lock").exists()


def test_unknown_scenario_is_reported_by_name(tmp_path, capsys):
    cfg = write_config(tmp_path, scenario="mystery_trial")
    assert main(["run", str(cfg), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert "mystery_trial" in err


def test_config_errors_are_all_listed(tmp_path, capsys):
    bad = analytic_config()
    bad["constraints"][0]["nominal"] = 1.7
    del bad["reference_point"]
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(bad))
    assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert "reference_point" in err
    assert "nominal" in err or "outside (0, 1)" in err


@pytest.mark.parametrize("section, key, value", [
    ("design_space", "low", "abc"),
    ("budget", "n_per_eval", 0),
    ("budget", "iterations", "ten"),
    ("pso", "swarm_size", 1),
])
def test_malformed_value_exits_2_before_writing(tmp_path, capsys, section, key, value):
    bad = analytic_config()
    (bad[section][0] if section == "design_space" else bad[section])[key] = value
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(bad))
    out = tmp_path / "out"
    assert main(["run", str(path), "--out", str(out)]) == 2
    assert not out.exists()
    assert f"config error: {section}" in capsys.readouterr().err


@pytest.mark.parametrize("section, key, value", [
    ("budget", "iterations", 2.7),
    ("budget", "n_per_eval", 30.9),
    ("pso", "swarm_size", 16.5),
    ("pso", "iterations", 2.5),
    (None, "seed", 7.5),
])
def test_fractional_count_exits_2_before_writing(tmp_path, capsys, section, key, value):
    bad = analytic_config()
    (bad[section] if section else bad)[key] = value
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(bad))
    out = tmp_path / "out"
    assert main(["run", str(path), "--out", str(out)]) == 2
    assert not out.exists()
    err = capsys.readouterr().err
    assert f"config error: {section or key}: {key} must be a whole number, got {value}" in err


@pytest.mark.parametrize("section, key, value, message", [
    ("design_space", "up", math.inf, "up must be finite, got inf"),
    ("design_space", "low", -math.inf, "low must be finite, got -inf"),
    (None, "reference_point", [math.nan], "reference_point must be finite, got nan"),
    ("budget", "n_per_eval", True, "n_per_eval must be a whole number, got True"),
    ("budget", "iterations", True, "iterations must be a whole number, got True"),
    ("budget", "iterations", "10", "iterations must be a whole number, got '10'"),
    (None, "seed", True, "seed must be a whole number, got True"),
    (None, "seed", -1, "seed must be in [0, 2**64), got -1"),
    (None, "seed", 2**64, f"seed must be in [0, 2**64), got {2**64}"),
    (None, "seed", 2**70, f"seed must be in [0, 2**64), got {2**70}"),
    ("hypotheses", "alpha", 2.0, "parameter 'alpha' = 2.0 must be in (0, 1)"),
    ("hypotheses", "sigma", -1.0, "parameter 'sigma' = -1.0 must be > 0"),
    ("design_space", "low", 1, "hypothesis 'alt' cannot be simulated at {'n': 1.0}: "
                               "per-arm n must be >= 2"),
    ("design_space", "name", {}, "name must be a string, got {}"),
    ("design_space", "kind", ["integer"], "dimension 'n' has unknown kind ['integer']"),
    ("constraints", "label", [1], "label must be a string, got [1]"),
    ("constraints", "hypothesis", [1], "hypothesis must be a string, got [1]"),
    ("objectives", "formula", ["x"], "formula must be a string, got ['x']"),
    (None, "objectives", {"labels": "ab", "coefficients": [[1.0], [2.0]]},
     "labels must be a list, got 'ab'"),
    (None, "objectives", {"labels": ["a", 1], "coefficients": [[1.0], [2.0]]},
     "objective label must be a string, got 1"),
    (None, "objectives", {"labels": ["a", "b"], "coefficients": [[2.0], [math.nan]]},
     "coefficients must be finite, got nan"),
])
def test_config_that_cannot_run_exits_2_before_writing(tmp_path, capsys, section,
                                                       key, value, message):
    bad = analytic_config()
    target = bad if section is None else bad[section]
    if section == "hypotheses":
        target = target[0]["params"]
    (target[0] if isinstance(target, list) else target)[key] = value
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(bad))
    out = tmp_path / "out"
    assert main(["run", str(path), "--out", str(out)]) == 2
    assert not out.exists()
    err = capsys.readouterr().err
    assert f"config error: {section or key}" in err and message in err
    assert err.count("config error:") == 1  # each problem once, none derived


CLUSTER_CONFIG = Path(__file__).resolve().parents[1] / "tools" / "configs" / "cluster_2obj.json"


@pytest.mark.parametrize("edit, message", [
    (lambda c: c["hypotheses"][0]["params"].update(alpha=2.0),
     "hypotheses[0]: parameter 'alpha' = 2.0 must be in (0, 1)"),
    (lambda c: c["hypotheses"][0]["params"].update(sigma_w2=-1),
     "hypotheses[0]: parameter 'sigma_w2' = -1.0 must be >= 0"),
    (lambda c: c["design_space"][1].update(low=1, up=2),
     "design_space: hypothesis 'alt' cannot be simulated at {'n': 100.0, 'k': 1.0}: "
     "need at least 2 therapist clusters"),
    # the second 'alt' would replace the first, and type II be judged under it
    (lambda c: c["hypotheses"].append(
        {**c["hypotheses"][0], "params": {**c["hypotheses"][0]["params"], "beta1": 0.0}}),
     "duplicate hypothesis name 'alt'"),
])
def test_cluster_config_that_cannot_run_exits_2_before_writing(tmp_path, capsys, edit,
                                                               message):
    bad = json.loads(CLUSTER_CONFIG.read_text())
    edit(bad)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(bad))
    out = tmp_path / "out"
    assert main(["run", str(path), "--out", str(out)]) == 2
    assert not out.exists()
    assert capsys.readouterr().err == f"config error: {message}\n"


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_non_finite_hypothesis_parameter_exits_2_before_writing(tmp_path, capsys,
                                                                value):
    bad = analytic_config()
    bad["hypotheses"][0]["params"]["delta"] = value
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(bad))
    out = tmp_path / "out"
    assert main(["run", str(path), "--out", str(out)]) == 2
    assert not out.exists()
    assert (f"config error: hypotheses[0]: delta must be finite, got {value}"
            in capsys.readouterr().err)


@pytest.mark.parametrize("edit, messages", [
    (lambda c: (c["design_space"][0].update(kind="weird"),
                c["constraints"][0].update(nominal=2.0)),
     ["design_space[0]: dimension 'n' has unknown kind 'weird'",
      "constraints[0]: constraint 'typeII' nominal 2.0 outside (0, 1)"]),
    (lambda c: (c.update(reference_point=[1100.0]),
                c["constraints"][0].update(confidence=0.3)),
     ["constraints[0]: constraint 'typeII' confidence 0.3 outside (0.5, 1)",
      "reference point has 1 entries for 2 objectives"]),
    (lambda c: (c["design_space"].append({"name": "zz", "low": 0, "up": 1}),
                c["budget"].update(n_per_eval=0)),
     ["design parameter 'zz' unknown to scenario 'cluster_rct'",
      "budget: n_per_eval must be >= 1"]),
    (lambda c: c.update(budget={"iterations": -1, "n_per_eval": 0, "initial_points": 1},
                        pso={"swarm_size": 1, "inertia": 2.0}),
     ["budget: iterations must be >= 0; n_per_eval must be >= 1; "
      "initial_points must be >= 2",
      "pso: swarm_size must be >= 2; inertia must be in (0, 1)"]),
])
def test_problems_of_different_layers_come_in_one_report(edit, messages):
    bad = json.loads(CLUSTER_CONFIG.read_text())
    edit(bad)
    with pytest.raises(ConfigError) as caught:
        normalize_config(bad)
    assert caught.value.problems == messages


def test_resume_nominal_is_judged_by_the_config_rules(tmp_path, capsys):
    cfg = write_config(tmp_path)
    out = tmp_path / "out"
    assert cmd_run(str(cfg), str(out)) == 0
    before = {p.name: p.read_bytes() for p in out.iterdir()}
    capsys.readouterr()
    assert main(["resume", str(out / "checkpoint.bin"), "--nominal", "typeII=1.5"]) == 2
    assert capsys.readouterr().err == (
        "config error: constraints[0]: constraint 'typeII' nominal 1.5 outside (0, 1)\n")
    assert {p.name: p.read_bytes() for p in out.iterdir()} == before


CONFIGS = sorted(CLUSTER_CONFIG.parent.glob("*.json"))
# counts a config may leave out, so that a mutation can also set them
OPTIONAL_COUNTS = [("budget", "max_total_samples"), ("pso", "swarm_size"),
                   ("pso", "iterations"), ("pso", "seed")]
DELETE, SWAP = object(), object()
# type swaps, non-finite numbers, small or invalid counts, out-of-range
# hypothesis values; never a large count, which would ask for that much work
MUTATIONS = ["x", [1], {}, None, True, "3", 0, -1, 2.5, 1.0, 2.0, -0.5,
             math.nan, math.inf, -math.inf, DELETE, SWAP]


def _paths(node, prefix=()):
    """The path of every entry below ``node``: each key of an object and
    each index of a list."""
    items = (node.items() if isinstance(node, dict)
             else enumerate(node) if isinstance(node, list) else ())
    for key, child in items:
        yield prefix + (key,)
        yield from _paths(child, prefix + (key,))


def _holds(node, key):
    return (isinstance(node, dict) and key in node
            or isinstance(node, list) and isinstance(key, int) and key < len(node))


def _mutate(cfg, path, value):
    """Set, delete or (for a design-space entry) swap the bounds of the
    entry at ``path``; a path the config no longer holds is left alone."""
    target = cfg
    for key in path[:-1]:
        if target is cfg and key in ("budget", "pso"):
            target.setdefault(key, {})
        if not _holds(target, key):
            return
        target = target[key]
    key = path[-1]
    if value is SWAP:
        entry = target[key] if _holds(target, key) else None
        if isinstance(entry, dict) and "low" in entry and "up" in entry:
            entry["low"], entry["up"] = entry["up"], entry["low"]
    elif value is DELETE:
        if _holds(target, key):
            del target[key]
    elif isinstance(target, dict) or _holds(target, key):
        target[key] = copy.deepcopy(value)  # the drawn list or object is shared


@st.composite
def mutated_configs(draw):
    path = draw(st.sampled_from(CONFIGS))
    cfg = json.loads(path.read_text())
    for _ in range(draw(st.integers(1, 2))):
        where = draw(st.sampled_from(list(_paths(cfg)) + OPTIONAL_COUNTS))
        _mutate(cfg, where, draw(st.sampled_from(MUTATIONS)))
    return cfg


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(mutated_configs())
def test_mutated_config_exits_2_before_writing_or_runs(cfg):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "config.json"
        path.write_text(json.dumps(cfg))
        out = Path(tmp) / "out"
        code = main(["run", str(path), "--out", str(out), "--iterations", "0",
                     "--n-per-eval", "20"])
        assert code in (0, 2)
        assert out.exists() == (code == 0)


def test_malformed_hypothesis_value_is_reported_once():
    bad = analytic_config()
    bad["hypotheses"][0]["params"]["delta"] = "x"
    with pytest.raises(ConfigError) as caught:
        normalize_config(bad)
    # the constraint on that hypothesis is not reported again as unknown
    assert len(caught.value.problems) == 1
    assert caught.value.problems[0].startswith("hypotheses[0]: ")


def test_whole_float_counts_are_kept_as_given():
    cfg = normalize_config(analytic_config(
        budget={"initial_points": 6.0, "n_per_eval": 30.0, "iterations": 3.0}))
    assert cfg["budget"]["iterations"] == 3.0
    assert budget_from_config(cfg) == BudgetConfig(iterations=3, n_per_eval=30,
                                                   initial_points=6)


def test_malformed_command_line_budget_exits_2_before_writing(tmp_path, capsys):
    cfg = write_config(tmp_path)
    out = tmp_path / "out"
    assert main(["run", str(cfg), "--out", str(out), "--n-per-eval", "0"]) == 2
    assert main(["baseline", str(cfg), "--out", str(out), "--n-per-eval", "0"]) == 2
    assert not out.exists()
    assert "n_per_eval must be >= 1" in capsys.readouterr().err


@pytest.mark.parametrize("command, flag, value", [
    ("baseline", "--count", "-3"),
    ("baseline", "--count", "0"),
    ("baseline", "--confidence", "1.5"),
    ("verify", "--n-verify", "0"),
    ("resume", "--iterations", "-3"),
])
def test_bad_command_line_value_exits_2_before_writing(tmp_path, capsys, command,
                                                       flag, value):
    cfg = write_config(tmp_path)
    out = tmp_path / "out"
    if command == "verify":
        assert main(["run", str(cfg), "--out", str(out), "--iterations", "0"]) == 0
        argv = ["verify", str(out)]
    elif command == "resume":
        assert main(["run", str(cfg), "--out", str(out), "--iterations", "0"]) == 0
        argv = ["resume", str(out / "checkpoint.bin")]
    else:
        argv = ["baseline", str(cfg), "--out", str(out)]
    before = {p.name: p.read_bytes() for p in out.iterdir()} if out.exists() else None
    assert main(argv + [flag, value]) == 2
    assert f"config error: {flag} must be" in capsys.readouterr().err
    after = {p.name: p.read_bytes() for p in out.iterdir()} if out.exists() else None
    assert after == before


def test_rerun_same_seed_is_byte_identical(tmp_path):
    cfg = write_config(tmp_path)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert cmd_run(str(cfg), str(out1)) == 0
    assert cmd_run(str(cfg), str(out2)) == 0
    assert (out1 / "evals.log").read_bytes() == (out2 / "evals.log").read_bytes()


def test_run_refuses_existing_checkpoint(tmp_path, capsys):
    cfg = write_config(tmp_path)
    out = tmp_path / "out"
    assert main(["run", str(cfg), "--out", str(out)]) == 0
    assert main(["run", str(cfg), "--out", str(out)]) == 2
    assert "resume" in capsys.readouterr().err


@pytest.mark.parametrize("first, second", [
    ("run", "run"), ("baseline", "baseline"), ("baseline", "run")])
def test_run_and_baseline_refuse_a_directory_with_a_log(tmp_path, capsys, first, second):
    cfg = write_config(tmp_path)
    out = tmp_path / "out"
    extra = {"run": [], "baseline": ["--count", "5"]}
    assert main([first, str(cfg), "--out", str(out)] + extra[first]) == 0
    # a run killed before it wrote its checkpoint leaves its log behind
    (out / "checkpoint.bin").unlink(missing_ok=True)
    before = {p.name: p.read_bytes() for p in out.iterdir()}
    capsys.readouterr()
    assert main([second, str(cfg), "--out", str(out)] + extra[second]) == 2
    assert "evals.log already exists" in capsys.readouterr().err
    assert {p.name: p.read_bytes() for p in out.iterdir()} == before


def test_baseline_refuses_a_directory_with_a_checkpoint(tmp_path, capsys):
    cfg = write_config(tmp_path)
    out = tmp_path / "out"
    assert main(["run", str(cfg), "--out", str(out)]) == 0
    for name in os.listdir(out):
        if name != "checkpoint.bin":
            (out / name).unlink()
    before = {p.name: p.read_bytes() for p in out.iterdir()}
    capsys.readouterr()
    assert main(["baseline", str(cfg), "--out", str(out), "--count", "5"]) == 2
    assert "checkpoint.bin already exists" in capsys.readouterr().err
    assert {p.name: p.read_bytes() for p in out.iterdir()} == before


def test_config_normalization_roundtrip():
    cfg = normalize_config(analytic_config())
    again = normalize_config(json.loads(canonical_dumps(cfg)))
    assert cfg == again


@pytest.mark.parametrize("command", ["run", "baseline"])
@pytest.mark.parametrize("path", CONFIGS, ids=lambda p: p.stem)
def test_shipped_and_written_configs_normalize_to_themselves(tmp_path, path, command):
    cfg = normalize_config(load_config(path))
    assert normalize_config(cfg) == cfg
    out = tmp_path / "out"
    extra = ["--iterations", "0"] if command == "run" else ["--count", "3"]
    assert main([command, str(path), "--out", str(out), "--n-per-eval", "20", *extra]) == 0
    written = load_config(out / "config.normalized")
    assert normalize_config(written) == written


@pytest.mark.parametrize("edit, problem", [
    (lambda c: c.update(budgett={"iterations": 50}), "top level: unknown key 'budgett'"),
    (lambda c: c["design_space"][0].update(kinds="integer"),
     "design_space[0]: unknown key 'kinds'"),
    # misspelt, the event would fall back to "reject": a bound on the rejection rate
    (lambda c: c["hypotheses"][0].update(evnt=c["hypotheses"][0].pop("event")),
     "hypotheses[0]: unknown key 'evnt'"),
    (lambda c: c["constraints"][0].update(confidance=0.9),
     "constraints[0]: unknown key 'confidance'"),
    (lambda c: c["objectives"].update(labels=["n"]), "objectives: unknown key 'labels'"),
    (lambda c: c.update(objectives={"labels": ["n"], "coefficients": [[1.0]],
                                    "weights": [1.0]}),
     "objectives: unknown key 'weights'"),
    (lambda c: c["budget"].update(iteration=50), "budget: unknown key 'iteration'"),
    (lambda c: c["pso"].update(swarm=8), "pso: unknown key 'swarm'"),
])
def test_unknown_key_exits_2_before_writing(tmp_path, capsys, edit, problem):
    bad = analytic_config()
    edit(bad)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(bad))
    for command in ("run", "baseline"):
        out = tmp_path / command
        assert main([command, str(path), "--out", str(out)]) == 2
        assert not out.exists()
        err = capsys.readouterr().err
        assert err.count("config error:") == 1 and f"config error: {problem} (known: " in err


def test_hypothesis_params_keep_optional_scenario_parameters():
    cfg = json.loads(CLUSTER_CONFIG.read_text())
    cfg["hypotheses"][0]["params"]["beta0"] = 0.5
    assert normalize_config(cfg)["hypotheses"][0]["params"]["beta0"] == 0.5


def test_more_objectives_than_the_hypervolume_covers_exit_2_before_writing(tmp_path,
                                                                         capsys):
    bad = analytic_config(objectives={"labels": list("abcd"),
                                      "coefficients": [[1.0], [2.0], [3.0], [4.0]]},
                          reference_point=[400.0] * 4)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(bad))
    for command in ("run", "baseline"):
        out = tmp_path / command
        assert main([command, str(path), "--out", str(out)]) == 2
        assert not out.exists()
        assert capsys.readouterr().err == (
            "config error: 4 objectives given; the hypervolume covers at most 3\n")


def test_run_then_resume_matches_straight_run(tmp_path):
    cfg_short = write_config(tmp_path, name="short.json")
    cfg_long = write_config(
        tmp_path, name="long.json",
        budget={"initial_points": 6, "n_per_eval": 30, "iterations": 5},
    )
    out_long = tmp_path / "long"
    out_short = tmp_path / "short"
    assert cmd_run(str(cfg_long), str(out_long)) == 0
    assert cmd_run(str(cfg_short), str(out_short)) == 0
    assert main(["resume", str(out_short / "checkpoint.bin"),
                 "--iterations", "2"]) == 0
    assert (out_short / "evals.log").read_bytes() == (
        out_long / "evals.log").read_bytes()
    # hypervolume trajectories agree too
    assert read_csv(out_short / "trajectory.csv") == read_csv(out_long / "trajectory.csv")


def test_resume_drops_records_logged_after_the_checkpoint(tmp_path):
    cfg = write_config(tmp_path)
    straight, out = tmp_path / "straight", tmp_path / "out"
    assert main(["run", str(cfg), "--out", str(straight)]) == 0
    assert main(["run", str(cfg), "--out", str(out), "--iterations", "2"]) == 0
    # a resume killed before its checkpoint leaves the records it logged
    with open(out / "evals.log", "a") as fh:
        fh.write((straight / "evals.log").read_text().splitlines(keepends=True)[-1])
    moved = tmp_path / "moved"
    assert main(["resume", str(out / "checkpoint.bin"), "--out", str(moved),
                 "--iterations", "1"]) == 0
    assert main(["resume", str(out / "checkpoint.bin"), "--iterations", "1"]) == 0
    for resumed in (moved, out):
        assert (resumed / "evals.log").read_bytes() == (straight / "evals.log").read_bytes()


def test_resume_with_relaxed_bound_needs_no_new_simulation(tmp_path):
    cfg = write_config(tmp_path)
    out = tmp_path / "out"
    assert cmd_run(str(cfg), str(out)) == 0
    log_before = (out / "evals.log").read_bytes()
    assert main(["resume", str(out / "checkpoint.bin"),
                 "--nominal", "typeII=0.3"]) == 0
    assert (out / "evals.log").read_bytes() == log_before
    cfg_after = json.loads((out / "config.normalized").read_text())
    assert cfg_after["constraints"][0]["nominal"] == 0.3


def test_resume_with_tightened_bound_can_drop_rows(tmp_path):
    cfg = write_config(
        tmp_path,
        budget={"initial_points": 8, "n_per_eval": 100, "iterations": 6},
        constraints=[{"label": "typeII", "hypothesis": "alt",
                      "nominal": 0.3, "confidence": 0.9}],
        seed=5,
    )
    out = tmp_path / "out"
    assert cmd_run(str(cfg), str(out)) == 0
    rows_before = read_csv(out / "pareto.csv")
    assert len(rows_before) > 1
    n_before = float(rows_before[1][0])
    assert main(["resume", str(out / "checkpoint.bin"),
                 "--nominal", "typeII=0.12"]) == 0
    rows_after = read_csv(out / "pareto.csv")
    if len(rows_after) > 1:
        assert float(rows_after[1][0]) > n_before
    # the old minimal-n row cannot have survived a much tighter bound
    assert all(row[0] != rows_before[1][0] for row in rows_after[1:])


@pytest.mark.parametrize("field, bad", [("sigma", math.nan), ("lengthscales", math.inf)])
def test_resume_refuses_non_finite_kernel_parameters(tmp_path, capsys, field, bad):
    cfg = write_config(tmp_path)
    out = tmp_path / "out"
    assert cmd_run(str(cfg), str(out)) == 0
    checkpoint = out / "checkpoint.bin"
    doc = json.loads(checkpoint.read_text())
    params = doc["gp_params"]["typeII"]
    params[field] = [bad] if field == "lengthscales" else bad
    checkpoint.write_text(json.dumps(doc))
    before = {p.name: p.read_bytes() for p in out.iterdir()}
    assert main(["resume", str(checkpoint), "--iterations", "1"]) == 2
    assert "corrupt checkpoint" in capsys.readouterr().err
    assert {p.name: p.read_bytes() for p in out.iterdir()} == before


def test_resume_rejects_unknown_nominal_label(tmp_path, capsys):
    cfg = write_config(tmp_path)
    out = tmp_path / "out"
    assert cmd_run(str(cfg), str(out)) == 0
    assert main(["resume", str(out / "checkpoint.bin"),
                 "--nominal", "ghost=0.5"]) == 2
    assert "ghost" in capsys.readouterr().err


def test_baseline_outputs_and_hypervolume(tmp_path):
    cfg = write_config(tmp_path)
    out = tmp_path / "base"
    assert main(["baseline", str(cfg), "--out", str(out), "--count", "30"]) == 0
    report = (out / "report.txt").read_text()
    assert "hypervolume" in report
    rows = read_csv(out / "pareto.csv")
    assert rows[0][0] == "n"


def test_baseline_zero_survivors_is_ok(tmp_path):
    cfg = write_config(
        tmp_path,
        constraints=[{"label": "typeII", "hypothesis": "alt",
                      "nominal": 0.01, "confidence": 0.9}],
    )
    out = tmp_path / "base"
    assert cmd_baseline(str(cfg), str(out), count=10) == 0
    rows = read_csv(out / "pareto.csv")
    assert len(rows) == 1  # header only
    assert "hypervolume: 0.0" in (out / "report.txt").read_text()


def test_baseline_different_seeds_differ(tmp_path):
    cfg = write_config(tmp_path)
    out1, out2 = tmp_path / "b1", tmp_path / "b2"
    assert cmd_baseline(str(cfg), str(out1), seed=1) == 0
    assert cmd_baseline(str(cfg), str(out2), seed=2) == 0
    assert (out1 / "evals.log").read_bytes() != (out2 / "evals.log").read_bytes()


def test_verify_appends_precise_estimates(tmp_path):
    cfg = write_config(
        tmp_path,
        budget={"initial_points": 8, "n_per_eval": 100, "iterations": 5},
    )
    out = tmp_path / "out"
    assert cmd_run(str(cfg), str(out)) == 0
    n_verify = 20000
    assert main(["verify", str(out), "--n-verify", str(n_verify)]) == 0
    rows = read_csv(out / "pareto_verified.csv")
    header = rows[0]
    assert "verified[typeII]" in header
    assert "ci_low[typeII]" in header and "ci_high[typeII]" in header

    scenario = get_scenario("two_arm_normal")
    hp = {"delta": 0.5, "sigma": 1.0, "alpha": 0.05}
    i_est = header.index("verified[typeII]")
    for row in rows[1:]:
        n = float(row[0])
        est = float(row[i_est])
        lo, hi = float(row[i_est + 1]), float(row[i_est + 2])
        clamped = min(max(est, 1 / (2 * n_verify)), 1 - 1 / (2 * n_verify))
        width = 2 * 1.96 * math.sqrt(clamped * (1 - clamped) / n_verify)
        assert hi - lo == pytest.approx(width, rel=1e-9)
        beta_true = 1.0 - scenario.rejection_rate({"n": n}, hp)
        se = math.sqrt(max(beta_true * (1 - beta_true), 1e-12) / n_verify)
        assert abs(est - beta_true) < 3 * se


def assert_refused_while_locked(directory, argv, capsys):
    """``main(argv)`` exits 2 while this process holds ``directory``'s lock
    through another open file, and leaves the directory byte for byte as it
    was; the lock file goes with the lock."""
    directory.mkdir(exist_ok=True)
    with RunLock(directory):
        before = {p.name: p.read_bytes() for p in directory.iterdir()}
        assert main(argv) == 2
        assert {p.name: p.read_bytes() for p in directory.iterdir()} == before
    assert "run directory is locked by another process" in capsys.readouterr().err
    assert not (directory / ".lock").exists()


def test_lock_prevents_concurrent_runs(tmp_path, capsys):
    cfg = write_config(tmp_path)
    out = tmp_path / "out"
    assert_refused_while_locked(out, ["run", str(cfg), "--out", str(out)], capsys)
    assert list(out.iterdir()) == []


def test_baseline_into_locked_directory_changes_nothing(tmp_path, capsys):
    cfg = write_config(tmp_path)
    out = tmp_path / "out"
    assert_refused_while_locked(out, ["baseline", str(cfg), "--out", str(out)], capsys)
    assert list(out.iterdir()) == []


def test_resume_into_locked_directory_changes_nothing(tmp_path, capsys):
    cfg = write_config(tmp_path)
    out = tmp_path / "out"
    assert main(["run", str(cfg), "--out", str(out), "--iterations", "0"]) == 0
    other = tmp_path / "other"
    other.mkdir()
    (other / "evals.log").write_text("SENTINEL\n")
    assert_refused_while_locked(
        other, ["resume", str(out / "checkpoint.bin"), "--out", str(other)], capsys)
    assert (other / "evals.log").read_text() == "SENTINEL\n"


def test_resume_in_locked_directory_changes_nothing(tmp_path, capsys):
    cfg = write_config(tmp_path)
    out = tmp_path / "out"
    assert main(["run", str(cfg), "--out", str(out), "--iterations", "0"]) == 0
    assert_refused_while_locked(
        out, ["resume", str(out / "checkpoint.bin"), "--iterations", "1"], capsys)


def test_verify_in_locked_directory_changes_nothing(tmp_path, capsys):
    cfg = write_config(tmp_path)
    out = tmp_path / "out"
    assert main(["run", str(cfg), "--out", str(out), "--iterations", "0"]) == 0
    assert_refused_while_locked(out, ["verify", str(out), "--n-verify", "100"], capsys)


# takes the lock on the directory named by its argument, says so, and waits
HOLD_LOCK = """
import sys, time
from pathlib import Path
from trialopt.cli import RunLock
with RunLock(Path(sys.argv[1])):
    print("held", flush=True)
    time.sleep(60)
"""


def test_a_killed_holder_leaves_no_lock_behind(tmp_path, capsys):
    cfg = write_config(tmp_path)
    out = tmp_path / "out"
    assert main(["run", str(cfg), "--out", str(out), "--iterations", "0"]) == 0
    src = str(Path(engine.__file__).resolve().parents[1])
    with subprocess.Popen([sys.executable, "-c", HOLD_LOCK, str(out)],
                          stdout=subprocess.PIPE, text=True,
                          env={**os.environ, "PYTHONPATH": src}) as holder:
        try:
            assert holder.stdout.readline() == "held\n"
            assert main(["verify", str(out), "--n-verify", "100"]) == 2
            assert "locked by another process" in capsys.readouterr().err
            holder.kill()
            # the holder is dead but not reaped, as a killed run whose parent
            # has not waited for it yet; its .lock is still there
            os.waitid(os.P_PID, holder.pid, os.WEXITED | os.WNOWAIT)
            assert (out / ".lock").exists()
            assert main(["verify", str(out), "--n-verify", "100"]) == 0
            assert not (out / ".lock").exists()
            sibling = tmp_path / "sibling"
            assert main(["run", str(cfg), "--out", str(sibling), "--iterations", "0"]) == 0
        finally:
            holder.kill()


@pytest.mark.parametrize("replaced", [True, False], ids=["replaced", "removed"])
def test_lock_on_a_file_the_path_no_longer_names_is_refused(tmp_path, monkeypatch,
                                                            replaced):
    """A process that opened .lock just before its holder removed it, and
    locks it after, holds an orphan: refused as held, whether a third has
    made a new .lock or not."""
    real_flock = fcntl.flock

    def flock_after_the_holder_left(fd, operation):
        (tmp_path / ".lock").unlink()
        if replaced:
            (tmp_path / ".lock").write_text("")
        return real_flock(fd, operation)

    monkeypatch.setattr(cli.fcntl, "flock", flock_after_the_holder_left)
    with pytest.raises(ConfigError, match="run directory is locked by another process"):
        with RunLock(tmp_path):
            pass
    assert (tmp_path / ".lock").exists() == replaced


@pytest.fixture
def refusing_simulator(monkeypatch):
    """Every Monte Carlo estimate fails, as one whose simulator raises does.
    A config whose designs the simulator refuses outright is refused before
    the run directory is written, so the abort is brought about here."""
    def refuse(sim, point, hypothesis, n_samples, seed):
        raise SimulationError("simulator refused the design", 0, seed)

    monkeypatch.setattr(engine, "mc_estimate", refuse)


def assert_aborted_with_checkpoint(out, err):
    assert f"resumable checkpoint: {out / 'checkpoint.bin'}" in err
    cfg = json.loads((out / "config.normalized").read_text())
    checkpoint = json.loads((out / "checkpoint.bin").read_text())
    assert checkpoint["config_hash"] == config_hash(cfg)
    assert not (out / ".lock").exists()


def test_aborted_run_leaves_checkpoint_with_config_hash(tmp_path, capsys,
                                                        refusing_simulator):
    cfg = write_config(tmp_path)
    out = tmp_path / "out"
    assert main(["run", str(cfg), "--out", str(out)]) == 1
    assert_aborted_with_checkpoint(out, capsys.readouterr().err)


def test_aborted_resume_leaves_checkpoint_with_config_hash(tmp_path, capsys,
                                                           refusing_simulator):
    cfg = write_config(tmp_path)
    out = tmp_path / "out"
    assert main(["run", str(cfg), "--out", str(out)]) == 1
    capsys.readouterr()
    moved = tmp_path / "moved"
    assert main(["resume", str(out / "checkpoint.bin"), "--out", str(moved)]) == 1
    assert_aborted_with_checkpoint(moved, capsys.readouterr().err)


def test_verify_of_aborted_run_exits_1_and_changes_nothing(tmp_path, capsys,
                                                           refusing_simulator):
    cfg = write_config(tmp_path)
    out = tmp_path / "out"
    assert main(["run", str(cfg), "--out", str(out)]) == 1
    capsys.readouterr()
    before = {p.name: p.read_bytes() for p in out.iterdir()}
    assert main(["verify", str(out), "--n-verify", "100"]) == 1
    assert "error: resume aborted: no hyperparameters" in capsys.readouterr().err
    assert {p.name: p.read_bytes() for p in out.iterdir()} == before


def test_unwritable_abort_checkpoint_is_reported(tmp_path, capsys, monkeypatch,
                                                refusing_simulator):
    def refuse(*args, **kwargs):
        raise OSError("disk full")

    monkeypatch.setattr(engine, "save_checkpoint", refuse)
    cfg = write_config(tmp_path)
    out = tmp_path / "out"
    assert main(["run", str(cfg), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "could not write checkpoint" in err and "disk full" in err
    assert "resumable checkpoint" not in err
    assert not (out / ".lock").exists()


def test_normalize_config_checks_scenario_schema():
    with pytest.raises(ConfigError) as info:
        normalize_config(analytic_config(
            design_space=[{"name": "m", "low": 10, "up": 200, "kind": "integer"}],
        ))
    assert info.value.problems == [
        "scenario 'two_arm_normal' needs design parameter 'n'",
        "design parameter 'm' unknown to scenario 'two_arm_normal'",
    ]


def test_linear_combination_objectives(tmp_path):
    cfg = write_config(
        tmp_path,
        objectives={"labels": ["double_n"], "coefficients": [[2.0]]},
        reference_point=[400],
    )
    out = tmp_path / "out"
    assert cmd_run(str(cfg), str(out)) == 0
    rows = read_csv(out / "pareto.csv")
    assert rows[0][1] == "double_n"
    for row in rows[1:]:
        assert float(row[1]) == pytest.approx(2 * float(row[0]))


def test_resume_out_refuses_a_directory_holding_another_run(tmp_path, capsys):
    cfg = write_config(tmp_path)
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["run", str(cfg), "--out", str(a), "--seed", "7"]) == 0
    assert main(["run", str(cfg), "--out", str(b), "--seed", "8"]) == 0
    before = {p.name: p.read_bytes() for p in b.iterdir()}
    capsys.readouterr()
    assert main(["resume", str(a / "checkpoint.bin"), "--out", str(b),
                 "--iterations", "0"]) == 2
    assert "checkpoint.bin already exists" in capsys.readouterr().err
    assert {p.name: p.read_bytes() for p in b.iterdir()} == before
    # a killed run leaves its log without a checkpoint: refused as well
    (b / "checkpoint.bin").unlink()
    before.pop("checkpoint.bin")
    assert main(["resume", str(a / "checkpoint.bin"), "--out", str(b),
                 "--iterations", "0"]) == 2
    assert "evals.log already exists" in capsys.readouterr().err
    assert {p.name: p.read_bytes() for p in b.iterdir()} == before


def test_resume_out_naming_the_run_directory_resumes_in_place(tmp_path):
    cfg = write_config(tmp_path)
    out = tmp_path / "out"
    assert main(["run", str(cfg), "--out", str(out), "--iterations", "1"]) == 0
    records = len((out / "evals.log").read_text().splitlines())
    assert main(["resume", str(out / "checkpoint.bin"), "--out",
                 str(tmp_path / "." / "out" / ".." / "out"), "--iterations", "1"]) == 0
    assert len((out / "evals.log").read_text().splitlines()) > records


def test_importing_cli_loads_neither_scipy_stats_nor_scipy_optimize():
    # every command pays this import: scipy.optimize alone adds about 0.3 s
    src = Path(__file__).resolve().parents[1] / "src"
    code = ("import sys, trialopt.cli; "
            "print([m for m in ('scipy.stats', 'scipy.optimize') if m in sys.modules])")
    result = subprocess.run([sys.executable, "-c", code], capture_output=True,
                            text=True, env=dict(os.environ, PYTHONPATH=str(src)))
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"


@pytest.mark.parametrize("given, expected", [(None, "1"), ("2", "2")])
def test_importing_trialopt_defaults_openblas_to_one_thread(given, expected):
    src = Path(__file__).resolve().parents[1] / "src"
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    if given is not None:
        env["OPENBLAS_NUM_THREADS"] = given
    code = "import os, trialopt; print(os.environ['OPENBLAS_NUM_THREADS'])"
    result = subprocess.run([sys.executable, "-c", code], capture_output=True,
                            text=True, env=dict(env, PYTHONPATH=str(src)))
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == expected
