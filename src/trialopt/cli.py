"""Command-line front end: parse a declarative problem config, run or resume
optimizations, run the fixed-design baseline, and emit machine-readable
reports.

A run directory contains: config.normalized (the effective config),
evals.log (one JSON record per evaluation, in order; ``resume`` writes it
afresh from the checkpoint's records), pareto.csv, trajectory.csv,
checkpoint.bin, report.txt and, after ``verify``, pareto_verified.csv.
While a command works in it the directory also holds .lock, which every
command locks (``flock``) before it writes anything; one that finds it held
exits 2 without changing the directory, and the holder's exit, killed or
not, releases it. ``run``, ``baseline`` and ``resume --out`` into another
directory start only in a directory that holds neither checkpoint.bin nor
evals.log, so no run's checkpoint is replaced and one log never mixes two
runs' records.
"""

from __future__ import annotations

import argparse
import csv
import fcntl
import hashlib
import json
import logging
import math
import os
import sys
import time
from contextlib import contextmanager
from dataclasses import asdict
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from . import engine
from .acquisition import PsoConfig, feasibility_quantile
from .domain import (
    Constraint,
    DesignPoint,
    DesignSpace,
    Dimension,
    EvaluationRecord,
    Hypothesis,
    ObjectiveSpec,
    Problem,
    cross_problems,
    not_a_string,
    pool_by_design,
    repeated,
)
from .engine import BudgetConfig, CheckpointError, RunAborted, RunState
from .gp import gp_predict_many
from .montecarlo import TrialSimulator, mc_estimate
from .pareto import hypervolume
from .simlib import Scenario, UnknownScenarioError, get_scenario

logger = logging.getLogger("trialopt.cli")

CONFIG_NAME = "config.normalized"
LOG_NAME = "evals.log"
PARETO_NAME = "pareto.csv"
TRAJECTORY_NAME = "trajectory.csv"
CHECKPOINT_NAME = "checkpoint.bin"
REPORT_NAME = "report.txt"
VERIFIED_NAME = "pareto_verified.csv"
LOCK_NAME = ".lock"


class ConfigError(Exception):
    """Config could not be used; carries every problem found, not just the first."""

    def __init__(self, problems: Sequence[str]):
        super().__init__("; ".join(problems))
        self.problems = list(problems)


# ---------------------------------------------------------------------------
# config handling
# ---------------------------------------------------------------------------

def _unknown_keys(where: str, entry, known: Sequence[str]) -> list[str]:
    """A problem per key of ``entry`` (if an object) outside ``known``: a
    misspelt key would otherwise be dropped, and its default used unseen."""
    keys = entry if isinstance(entry, Mapping) else ()
    return [f"{where}: unknown key {key!r} (known: {', '.join(known)})"
            for key in keys if key not in known]


def _attempt(problems: list[str], where: str, build):
    """``build()``, or None with a problem recorded when a value is malformed
    or out of range."""
    try:
        return build()
    except (TypeError, ValueError) as exc:
        problems.append(f"{where}: {exc}")
        return None


def load_config(path: str | Path) -> dict:
    try:
        raw = json.loads(Path(path).read_text())
    except FileNotFoundError:
        raise ConfigError([f"config file not found: {path}"]) from None
    except json.JSONDecodeError as exc:
        raise ConfigError([f"config is not valid JSON: {exc}"]) from None
    if not isinstance(raw, dict):
        raise ConfigError(["config root must be an object"])
    return raw


def normalize_config(raw: Mapping) -> dict:
    """Fill defaults and judge a raw config: every problem found comes in one
    ConfigError, each once, and nothing is written before this returns.

    Each entry is built into its domain object, whose constructor judges it;
    then ``domain.cross_problems`` and the scenario's schema judge what
    parsed. An entry that failed its own checks is not judged again through
    another, so a constraint on a malformed hypothesis is not also reported
    as unknown. A config that normalizes builds with ``build_problem``."""
    problems = _unknown_keys("top level", raw, (
        "scenario", "design_space", "hypotheses", "constraints", "objectives",
        "reference_point", "budget", "pso", "seed"))
    cfg: dict = {}

    scenario_name = raw.get("scenario")
    scenario = None
    if not isinstance(scenario_name, str):
        problems.append("'scenario' (string) is required")
    else:
        try:
            scenario = get_scenario(scenario_name)
        except UnknownScenarioError as exc:
            problems.append(str(exc))
    cfg["scenario"] = scenario_name

    raw_dims = raw.get("design_space")
    dims: list[Dimension] = []
    space = None
    if not isinstance(raw_dims, list):
        problems.append("'design_space' must be a list")
    else:
        for i, d in enumerate(raw_dims):
            problems.extend(_unknown_keys(f"design_space[{i}]", d, (
                "name", "low", "up", "kind")))
            if not isinstance(d, dict) or not {"name", "low", "up"} <= set(d):
                problems.append(f"design_space[{i}] needs name/low/up")
                continue
            dim = _attempt(problems, f"design_space[{i}]", lambda: Dimension(
                d["name"], _finite(d["low"], "low"), _finite(d["up"], "up"),
                d.get("kind", "continuous")))
            if dim is not None:
                dims.append(dim)
        # an empty list is judged by the space; one whose every entry failed is not
        if dims or not raw_dims:
            space = _attempt(problems, "design_space", lambda: DesignSpace(dims))
    cfg["design_space"] = [{"name": d.name, "low": d.lower, "up": d.upper,
                            "kind": d.kind} for d in dims]
    # the space the config gives, known only when every entry parsed
    whole = space if space is not None and len(dims) == len(raw_dims) else None

    raw_hyps = raw.get("hypotheses")
    hyps: list[Hypothesis] = []
    # every name a hypothesis entry gives, well-formed or not
    hyp_names: list[str] = []
    if not isinstance(raw_hyps, list) or not raw_hyps:
        problems.append("'hypotheses' must be a non-empty list")
    else:
        for i, h in enumerate(raw_hyps):
            problems.extend(_unknown_keys(f"hypotheses[{i}]", h, (
                "name", "params", "event")))
            if isinstance(h, dict) and isinstance(h.get("name"), str):
                hyp_names.append(h["name"])
            if not isinstance(h, dict) or "name" not in h or "params" not in h:
                problems.append(f"hypotheses[{i}] needs name and params")
                continue
            hyp = _attempt(problems, f"hypotheses[{i}]", lambda: Hypothesis(
                h["name"], {k: _finite(v, k) for k, v in dict(h["params"]).items()},
                h.get("event", "reject")))
            if hyp is None:
                continue
            hyps.append(hyp)
            if scenario is not None:
                missing = [p for p in scenario.hypothesis_params if p not in hyp.params]
                if missing:
                    problems.append(f"hypothesis {hyp.name!r} missing scenario "
                                    f"parameter(s): {', '.join(missing)}")
                problems.extend(f"hypotheses[{i}]: {problem}" for problem
                                in scenario.hypothesis_problems(hyp.params))
    # a problem keys its hypotheses by name, where a second entry would replace the first
    problems.extend(f"duplicate hypothesis name {name!r}" for name in repeated(hyp_names))
    cfg["hypotheses"] = [asdict(h) for h in hyps]

    raw_cons = raw.get("constraints")
    cons: list[Constraint] = []
    if not isinstance(raw_cons, list) or not raw_cons:
        problems.append("'constraints' must be a non-empty list")
    else:
        for i, c in enumerate(raw_cons):
            problems.extend(_unknown_keys(f"constraints[{i}]", c, (
                "label", "hypothesis", "nominal", "confidence")))
            if not isinstance(c, dict) or not {"label", "hypothesis", "nominal"} <= set(c):
                problems.append(f"constraints[{i}] needs label/hypothesis/nominal")
                continue
            con = _attempt(problems, f"constraints[{i}]", lambda: Constraint(
                c["label"], c["hypothesis"], float(c["nominal"]),
                float(c.get("confidence", 0.9))))
            if con is not None:
                cons.append(con)
    cfg["constraints"] = [asdict(c) for c in cons]

    obj = raw.get("objectives")
    entry = None  # the normalized entry, once it parsed
    if not isinstance(obj, dict):
        problems.append("'objectives' must be an object")
    elif "formula" in obj:
        problems.extend(_unknown_keys("objectives", obj, ("formula",)))
        wrong = not_a_string("formula", obj["formula"])
        problems.extend(f"objectives: {problem}" for problem in wrong)
        if scenario is not None and not wrong:
            if obj["formula"] in scenario.objective_formulas:
                entry = {"formula": obj["formula"]}
            else:
                known = ", ".join(sorted(scenario.objective_formulas))
                problems.append(f"objective formula {obj['formula']!r} unknown to "
                                f"scenario {scenario.name!r} (known: {known})")
    elif "coefficients" in obj and "labels" in obj:
        problems.extend(_unknown_keys("objectives", obj, ("labels", "coefficients")))
        entry = _attempt(problems, "objectives", lambda: _linear_objectives(obj, whole))
    else:
        problems.append("'objectives' needs either a formula or labels+coefficients")
    cfg["objectives"] = entry or {}
    objectives = None if entry is None else _attempt(
        problems, "objectives", lambda: build_objectives(entry, scenario, ()))

    ref = raw.get("reference_point")
    if not isinstance(ref, list) or not ref:
        problems.append("'reference_point' must be a non-empty list")
        cfg["reference_point"] = []
    else:
        cfg["reference_point"] = _attempt(
            problems, "reference_point",
            lambda: [_finite(v, "reference_point") for v in ref])

    problems.extend(cross_problems(cons, dict.fromkeys(hyp_names), objectives,
                                   cfg["reference_point"] or None))
    if scenario is not None and whole is not None:
        problems.extend(scenario.space_problems(whole))

    # defaults from the domain objects, whose own checks then judge the values
    for key, default, build in (("budget", BudgetConfig(), budget_from_config),
                                ("pso", PsoConfig(), pso_from_config)):
        given = _attempt(problems, key, lambda: dict(raw.get(key, {}) or {}))
        if given is not None:
            cfg[key] = {k: given.get(k, v) for k, v in asdict(default).items()}
            problems.extend(_unknown_keys(key, given, tuple(cfg[key])))
            _attempt(problems, key, lambda: build(cfg))

    cfg["seed"] = _attempt(problems, "seed", lambda: _seed(raw.get("seed", 0)))

    if problems:
        raise ConfigError(problems)
    return cfg


def canonical_dumps(cfg: Mapping) -> str:
    return json.dumps(cfg, sort_keys=True, indent=2)


def config_hash(cfg: Mapping) -> str:
    canonical = json.dumps(cfg, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def build_problem(cfg: Mapping) -> tuple[Problem, TrialSimulator]:
    """Turn a normalized config into domain objects plus the scenario's
    simulator, which serves every hypothesis. Judges nothing of its own:
    ``normalize_config`` has applied every rule the constructors apply."""
    scenario = get_scenario(cfg["scenario"])
    space = DesignSpace(tuple(Dimension(d["name"], d["low"], d["up"], d["kind"])
                              for d in cfg["design_space"]))
    hypotheses = {h["name"]: Hypothesis(**h) for h in cfg["hypotheses"]}
    constraints = tuple(Constraint(**c) for c in cfg["constraints"])
    objectives = build_objectives(cfg["objectives"], scenario, space.names)
    problem = Problem(space, objectives, constraints, hypotheses,
                      tuple(cfg["reference_point"]))
    return problem, scenario.simulator(space)


def _require_preparable(problem: Problem, sim: TrialSimulator, count: int) -> None:
    """Raise ConfigError, before any run directory is written, with one
    problem per hypothesis and message for which ``sim`` raises ValueError at
    a snapped corner of the box or at one of the ``count`` points of the
    initial design (the first such design named). A run or baseline would
    otherwise meet the error after writing its directory."""
    space = problem.space
    # the box's 2**D corners: bit d of row i picks dimension d's bound
    bits = (np.arange(1 << space.ndim)[:, None] >> np.arange(space.ndim)) & 1
    corners = space.snap(np.where(bits == 1, space.upper, space.lower))
    points = list(map(DesignPoint, corners.tolist()))
    points += engine.initial_design(problem, count)
    first: dict[tuple[str, str], DesignPoint] = {}
    for hypothesis in problem.hypotheses.values():
        for point in points:
            try:
                sim(point, hypothesis)
            except ValueError as exc:
                first.setdefault((hypothesis.name, str(exc)), point)
    if first:
        raise ConfigError([f"design_space: hypothesis {name!r} cannot be simulated "
                           f"at {dict(zip(space.names, point.coords))}: {message}"
                           for (name, message), point in first.items()])


def _whole(value, name: str) -> int:
    """``int(value)`` for a count given as an int or a whole float; a fraction
    such as 2.7 is refused rather than truncated, and so are a bool and a
    string."""
    if (isinstance(value, bool) or not isinstance(value, (int, float))
            or isinstance(value, float) and not value.is_integer()):
        raise ValueError(f"{name} must be a whole number, got {value!r}")
    return int(value)


def _seed(value) -> int:
    """A run seed: a whole number in [0, 2**64). ``derive_replicate_seed``
    keeps 64 bits of it, so a larger or negative seed would alias another."""
    seed = _whole(value, "seed")
    if not 0 <= seed < 2**64:
        raise ValueError(f"seed must be in [0, 2**64), got {value!r}")
    return seed


def _finite(value, name: str) -> float:
    """``float(value)``, refusing NaN and infinities."""
    number = float(value)
    if not math.isfinite(number):
        raise ValueError(f"{name} must be finite, got {value!r}")
    return number


def _linear_objectives(obj: Mapping, space: DesignSpace | None) -> dict:
    """A normalized linear ``objectives`` entry: a list of labels and one row
    of finite coefficients per label, one per dimension of ``space`` (not
    judged without a space)."""
    if not isinstance(obj["labels"], list):
        raise TypeError(f"labels must be a list, got {obj['labels']!r}")
    rows = [[_finite(v, "coefficients") for v in row] for row in obj["coefficients"]]
    if len(rows) != len(obj["labels"]):
        raise ValueError("one coefficient row per label required")
    if space is not None and any(len(row) != space.ndim for row in rows):
        raise ValueError("coefficient rows must match design dimensions")
    return {"labels": list(obj["labels"]), "coefficients": rows}


def build_objectives(obj_cfg: Mapping, scenario: Scenario,
                     names: Sequence[str]) -> ObjectiveSpec:
    """Batch objectives from a normalized ``objectives`` entry: a scenario
    formula, given one column per design parameter, or a coefficient matrix."""
    if "formula" in obj_cfg:
        labels, formula = scenario.objective_formulas[obj_cfg["formula"]]

        def evaluate(X: np.ndarray) -> np.ndarray:
            return np.column_stack(formula(dict(zip(names, X.T))))
    else:
        labels = obj_cfg["labels"]
        matrix = np.asarray(obj_cfg["coefficients"], dtype=float)

        def evaluate(X: np.ndarray) -> np.ndarray:
            # one matrix-vector product per row, rounded as ``matrix @ x`` is;
            # ``X @ matrix.T`` sums in another order and can differ in the last bit
            return np.matmul(matrix, X[:, :, None])[:, :, 0]

    return ObjectiveSpec(tuple(labels), evaluate)


def budget_from_config(cfg: Mapping) -> BudgetConfig:
    b = cfg["budget"]
    return BudgetConfig(
        iterations=_whole(b["iterations"], "iterations"),
        n_per_eval=_whole(b["n_per_eval"], "n_per_eval"),
        initial_points=(None if b["initial_points"] is None
                        else _whole(b["initial_points"], "initial_points")),
        max_total_samples=(None if b["max_total_samples"] is None
                           else _whole(b["max_total_samples"], "max_total_samples")),
    )


def pso_from_config(cfg: Mapping) -> PsoConfig:
    p = cfg["pso"]
    return PsoConfig(
        swarm_size=_whole(p["swarm_size"], "swarm_size"),
        iterations=_whole(p["iterations"], "iterations"),
        inertia=float(p["inertia"]), cognitive=float(p["cognitive"]),
        social=float(p["social"]), seed=_whole(p["seed"], "seed"),
    )


# ---------------------------------------------------------------------------
# run-directory plumbing
# ---------------------------------------------------------------------------

class RunLock:
    """One process owns one run directory: an exclusive ``flock`` on .lock,
    taken without waiting, and refused while another open file holds it.

    The kernel releases the lock when its holder exits, however it exits.
    Release unlinks .lock before closing it: a process that locked the file
    in between would hold a removed file while a third locks a new one. And
    the lock is refused unless the path still names the locked file, which
    it does not for a process that opened .lock before the holder unlinked it.
    """

    def __init__(self, out_dir: Path):
        self.path = out_dir / LOCK_NAME

    def __enter__(self):
        self._fd = os.open(self.path, os.O_CREAT | os.O_WRONLY)
        try:
            fcntl.flock(self._fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
            if not os.path.samestat(os.fstat(self._fd), os.stat(self.path)):
                raise BlockingIOError
        except (BlockingIOError, FileNotFoundError):
            os.close(self._fd)
            raise ConfigError([f"run directory is locked by another process "
                               f"({self.path}); wait for it to finish"]) from None
        return self

    def __exit__(self, *exc_info):
        self.path.unlink(missing_ok=True)  # before close: see the class docstring
        os.close(self._fd)


def record_writer(log_path: Path):
    """A newline-delimited record log, started afresh at ``log_path``;
    flushed per record so a crashed run loses at most one evaluation."""
    handle = open(log_path, "w")

    def write(rec: EvaluationRecord):
        line = json.dumps({
            "iteration": rec.iteration,
            "hypothesis": rec.hypothesis,
            "point": list(rec.point.coords),
            "n_samples": rec.n_samples,
            "successes": rec.successes,
            "estimate": rec.estimate,
            "mc_variance": rec.mc_variance,
            "seed": rec.seed,
        })
        handle.write(line + "\n")
        handle.flush()

    return handle, write


def write_pareto_csv(path: Path, problem: Problem, state: RunState) -> None:
    space = problem.space
    header = list(space.names) + list(problem.objectives.labels)
    for con in problem.constraints:
        header += [f"quantile[{con.label}]", f"estimate[{con.label}]",
                   f"n[{con.label}]"]
    pool = pool_by_design(state.records)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for point, objs in state.approx_set.members:
            row = list(point.coords) + list(objs)
            unit = space.normalize(point.array).reshape(1, -1)
            for con in problem.constraints:
                mean, var = gp_predict_many(state.models[con.label], unit)
                q = feasibility_quantile(float(mean[0]), float(var[0]), con.confidence)
                s, n = pool[point][con.hypothesis]
                row += [q, s / n, n]
            writer.writerow(row)


def write_baseline_csv(path: Path, problem: Problem, aset, records) -> None:
    pool = pool_by_design(records)
    header = list(problem.space.names) + list(problem.objectives.labels)
    for con in problem.constraints:
        header += [f"estimate[{con.label}]", f"n[{con.label}]"]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for point, objs in aset.members:
            row = list(point.coords) + list(objs)
            for con in problem.constraints:
                s, n = pool[point][con.hypothesis]
                row += [s / n, n]
            writer.writerow(row)


def write_trajectory_csv(path: Path, trajectory: Sequence[float]) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["iteration", "hypervolume"])
        for i, h in enumerate(trajectory):
            writer.writerow([i, h])


def write_report(path: Path, problem: Problem, state: RunState,
                 elapsed: float, cfg_hash: str) -> None:
    lines = [
        "trialopt run report",
        f"config hash: {cfg_hash}",
        f"design space: {', '.join(problem.space.names)} "
        f"({problem.space.ndim} dimensions)",
        f"objectives: {', '.join(problem.objectives.labels)}",
        f"constraints: " + "; ".join(
            f"{c.label}: rate under {c.hypothesis} <= {c.nominal} "
            f"(confidence {c.confidence})" for c in problem.constraints
        ),
        f"iterations completed: {state.iteration}",
        f"total simulator samples: {state.total_samples}",
        f"final hypervolume: {state.trajectory[-1]!r}",
        f"approximation set size: {len(state.approx_set)}",
        f"elapsed seconds: {elapsed:.2f}",
        "",
        "approximation set (design values | objectives):",
    ]
    for point, objs in state.approx_set.members:
        lines.append(
            "  " + ", ".join(f"{n}={v:g}" for n, v in zip(problem.space.names, point.coords))
            + " | " + ", ".join(f"{l}={v:g}" for l, v in zip(problem.objectives.labels, objs))
        )
    Path(path).write_text("\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def _apply_overrides(raw: Mapping, seed=None, iterations=None, n_per_eval=None,
                     nominals: Mapping[str, float] | None = None) -> dict:
    """The raw config with the command line's values in place of its own, so
    that ``normalize_config`` checks them too. ``nominals`` maps constraint
    labels to revised bounds; the raw config must have normalized."""
    raw = dict(raw)
    if nominals:
        raw["constraints"] = [{**c, "nominal": nominals[c["label"]]}
                              if c["label"] in nominals else c
                              for c in raw["constraints"]]
    if seed is not None:
        raw["seed"] = int(seed)
    budget = raw.get("budget") or {}
    if isinstance(budget, Mapping):
        budget = dict(budget)
        if iterations is not None:
            budget["iterations"] = int(iterations)
        if n_per_eval is not None:
            budget["n_per_eval"] = int(n_per_eval)
        raw["budget"] = budget
    return raw


@contextmanager
def _run_directory(out: Path, cfg: Mapping,
                   records: Sequence[EvaluationRecord] = (), new: bool = False):
    """Hold ``out`` for one command, locked before anything in it is written:
    refuse it, when ``new``, if it holds another run; write config.normalized
    and yield the writer of a fresh evals.log that starts with ``records`` (a
    resume's checkpoint records, never those a killed command logged later)."""
    out.mkdir(parents=True, exist_ok=True)
    with RunLock(out):
        if new:
            _require_new_run_dir(out)
        (out / CONFIG_NAME).write_text(canonical_dumps(cfg) + "\n")
        handle, write = record_writer(out / LOG_NAME)
        try:
            for rec in records:
                write(rec)
            yield write
        finally:
            handle.close()


def _require_new_run_dir(out: Path) -> None:
    """Refuse a directory that holds another run: its checkpoint, or the
    evals.log an earlier command left, would be replaced."""
    if (out / CHECKPOINT_NAME).exists():
        raise ConfigError(
            [f"{out / CHECKPOINT_NAME} already exists; use 'resume' or a fresh "
             "directory"]
        )
    if (out / LOG_NAME).exists():
        raise ConfigError(
            [f"{out / LOG_NAME} already exists; a new run would replace it: "
             "use a fresh directory"]
        )


def _optimize(out: Path, cfg: Mapping, step, records=(), new=False) -> int:
    """Run ``step(record_callback)``, which calls ``engine.run`` or
    ``engine.resume_run``, in ``_run_directory(out, cfg, records, new)``,
    then write the checkpoint, stamped with the config hash, and every output.

    An aborted step still leaves a resumable checkpoint of the state it
    reached, and returns 1.
    """
    cfg_hash = config_hash(cfg)
    checkpoint = out / CHECKPOINT_NAME
    with _run_directory(out, cfg, records, new) as write:
        t0 = time.perf_counter()
        try:
            state = step(write)
        except RunAborted as exc:
            print(f"error: {exc}", file=sys.stderr)
            try:
                engine.save_checkpoint(exc.state, checkpoint, config_hash=cfg_hash)
            except OSError as err:
                print(f"error: could not write checkpoint {checkpoint}: {err}",
                      file=sys.stderr)
            else:
                print(f"resumable checkpoint: {checkpoint}", file=sys.stderr)
            return 1
        elapsed = time.perf_counter() - t0
        engine.save_checkpoint(state, checkpoint, config_hash=cfg_hash)
        write_pareto_csv(out / PARETO_NAME, state.problem, state)
        write_trajectory_csv(out / TRAJECTORY_NAME, state.trajectory)
        write_report(out / REPORT_NAME, state.problem, state, elapsed, cfg_hash)
    return 0


def cmd_run(config_path: str, out_dir: str, seed=None, iterations=None,
            n_per_eval=None) -> int:
    cfg = normalize_config(_apply_overrides(load_config(config_path),
                                            seed, iterations, n_per_eval))
    problem, sim = build_problem(cfg)
    budget = budget_from_config(cfg)
    _require_preparable(problem, sim, budget.resolve_initial_points(problem.space.ndim))
    return _optimize(Path(out_dir), cfg, lambda write: engine.run(
        problem, sim, budget, pso=pso_from_config(cfg),
        seed=cfg["seed"], record_callback=write,
    ), new=True)


def _parse_nominals(pairs: Sequence[str]) -> dict[str, float]:
    out = {}
    problems = []
    for pair in pairs:
        if "=" not in pair:
            problems.append(f"--nominal needs LABEL=VALUE, got {pair!r}")
            continue
        label, _, value = pair.partition("=")
        try:
            out[label] = float(value)
        except ValueError:
            problems.append(f"--nominal {label}: {value!r} is not a number")
    if problems:
        raise ConfigError(problems)
    return out


def cmd_resume(checkpoint: str, iterations: int = 0,
               nominals: Mapping[str, float] | None = None,
               out_dir: str | None = None) -> int:
    if iterations < 0:
        raise ConfigError([f"--iterations must be >= 0, got {iterations}"])
    ckpt_path = Path(checkpoint)
    run_dir = ckpt_path.parent
    cfg_path = run_dir / CONFIG_NAME
    if not cfg_path.exists():
        raise ConfigError([f"no {CONFIG_NAME} found next to {checkpoint}"])
    raw = load_config(cfg_path)
    cfg = normalize_config(raw)

    data = engine.load_checkpoint(ckpt_path)
    if data.config_hash is not None and data.config_hash != config_hash(cfg):
        raise ConfigError(
            ["checkpoint was produced by a different config "
             f"(hash {data.config_hash[:12]}... != {config_hash(cfg)[:12]}...)"]
        )

    unknown = sorted(set(nominals or {}) - {c["label"] for c in cfg["constraints"]})
    if unknown:
        raise ConfigError(
            [f"--nominal references unknown constraint {u!r}" for u in unknown]
        )
    cfg = normalize_config(_apply_overrides(raw, nominals=nominals))
    problem, sim = build_problem(cfg)

    out = Path(out_dir) if out_dir else run_dir
    return _optimize(out, cfg, lambda write: engine.resume_run(
        data, problem, sim, budget_from_config(cfg),
        pso=pso_from_config(cfg), iterations=iterations, record_callback=write,
    ), data.records, new=out.resolve() != run_dir.resolve())


def cmd_baseline(config_path: str, out_dir: str, seed=None, count: int = 50,
                 n_per_eval=None, confidence: float = 0.975) -> int:
    cfg = normalize_config(_apply_overrides(load_config(config_path),
                                            seed, None, n_per_eval))
    problems = []
    if count < 1:
        problems.append(f"--count must be >= 1, got {count}")
    if not 0.0 < confidence < 1.0:
        problems.append(f"--confidence must be in (0, 1), got {confidence}")
    if problems:
        raise ConfigError(problems)
    problem, sim = build_problem(cfg)
    _require_preparable(problem, sim, count)
    out = Path(out_dir)
    with _run_directory(out, cfg, new=True) as write:
        aset, records = engine.fixed_design_search(
            problem, sim, count=count,
            n_samples=int(cfg["budget"]["n_per_eval"]),
            confidence=confidence, seed=cfg["seed"], record_callback=write,
        )
        hv = hypervolume(aset)
        write_baseline_csv(out / PARETO_NAME, problem, aset, records)
        lines = [
            "trialopt baseline report",
            f"config hash: {config_hash(cfg)}",
            f"points evaluated: {count}",
            f"samples per evaluation: {cfg['budget']['n_per_eval']}",
            f"confidence bound level: {confidence}",
            f"surviving nondominated solutions: {len(aset)}",
            f"hypervolume: {hv!r}",
        ]
        (out / REPORT_NAME).write_text("\n".join(lines) + "\n")
    return 0


def cmd_verify(run_dir: str, n_verify: int = 100000) -> int:
    run = Path(run_dir)
    cfg_path = run / CONFIG_NAME
    if not cfg_path.exists():
        raise ConfigError([f"no {CONFIG_NAME} in {run_dir}"])
    if n_verify < 1:
        raise ConfigError([f"--n-verify must be >= 1, got {n_verify}"])
    cfg = normalize_config(load_config(cfg_path))
    problem, sim = build_problem(cfg)
    with RunLock(run):
        data = engine.load_checkpoint(run / CHECKPOINT_NAME)
        try:
            state = engine.resume_run(data, problem, sim, budget_from_config(cfg),
                                      pso=pso_from_config(cfg), iterations=0)
        except RunAborted as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1

        header = list(problem.space.names) + list(problem.objectives.labels)
        for con in problem.constraints:
            header += [f"verified[{con.label}]", f"ci_low[{con.label}]",
                       f"ci_high[{con.label}]"]
        rows = []
        index = 0
        for point, objs in state.approx_set.members:
            row = list(point.coords) + list(objs)
            for con in problem.constraints:
                est = mc_estimate(
                    sim, point, problem.hypotheses[con.hypothesis], n_verify,
                    seed=engine.verify_seed(data.master_seed, index),
                )
                index += 1
                half = 1.96 * np.sqrt(est.variance)
                row += [est.mean, est.mean - half, est.mean + half]
            rows.append(row)
        with open(run / VERIFIED_NAME, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(header)
            writer.writerows(rows)
    return 0


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="trialopt",
        description="Surrogate-assisted optimization of simulation-based "
                    "trial designs",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run an optimization from a config file")
    p_run.add_argument("config")
    p_run.add_argument("--out", required=True, help="output directory")
    p_run.add_argument("--seed", type=int)
    p_run.add_argument("--iterations", type=int)
    p_run.add_argument("--n-per-eval", type=int)

    p_res = sub.add_parser("resume", help="continue from a checkpoint")
    p_res.add_argument("checkpoint")
    p_res.add_argument("--iterations", type=int, default=0,
                       help="additional iterations to run")
    p_res.add_argument("--nominal", action="append", default=[],
                       metavar="LABEL=VALUE", help="revise a constraint bound")
    p_res.add_argument("--out", help="write outputs to a different directory")

    p_base = sub.add_parser("baseline", help="fixed-design comparator search")
    p_base.add_argument("config")
    p_base.add_argument("--out", required=True)
    p_base.add_argument("--seed", type=int)
    p_base.add_argument("--count", type=int, default=50,
                        help="number of Sobol points to evaluate")
    p_base.add_argument("--n-per-eval", type=int)
    p_base.add_argument("--confidence", type=float, default=0.975,
                        help="one-sided level of the discard bound")

    p_ver = sub.add_parser("verify", help="re-estimate the approximation set "
                                          "with a large sample budget")
    p_ver.add_argument("run_dir")
    p_ver.add_argument("--n-verify", type=int, default=100000)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(message)s")
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "run":
            return cmd_run(args.config, args.out, seed=args.seed,
                           iterations=args.iterations,
                           n_per_eval=args.n_per_eval)
        if args.command == "resume":
            return cmd_resume(args.checkpoint, iterations=args.iterations,
                              nominals=_parse_nominals(args.nominal),
                              out_dir=args.out)
        if args.command == "baseline":
            return cmd_baseline(args.config, args.out, seed=args.seed,
                                count=args.count, n_per_eval=args.n_per_eval,
                                confidence=args.confidence)
        if args.command == "verify":
            return cmd_verify(args.run_dir, n_verify=args.n_verify)
    except ConfigError as exc:
        for problem in exc.problems:
            print(f"config error: {problem}", file=sys.stderr)
        return 2
    except (CheckpointError, UnknownScenarioError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
