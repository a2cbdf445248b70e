"""The workloads: their inputs, one round of work, and its checks.

A round is a fixed set of operations on inputs made from the seed, so every
round of a run does the same work and must give byte-identical outputs. An
operation is one optimiser run (or one fixed-design search) with all its
checks, or one oracle-checked Monte Carlo estimate. Checks compare outputs
with ``reference`` computations or with properties the method must have;
none compares with a stored copy of earlier output.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path

import calibration
import reference

# Monte Carlo estimates must lie within this many binomial standard errors
# of their oracle; ``reference.band_false_alarm`` gives the chance that a
# correct estimate misses (summed over one round in the README).
BAND_Z = 6.0
MC_REPLICATES = 5000
WORKER_REPLICATES = 1000

# Every member's oracle error rate must be at most its nominal plus this
# tolerance (0.13 for a 0.1 type II bound, as in acceptance criterion 7);
# hv_oracle counts only the members that meet it.
ORACLE_TOLERANCE = 0.03

_CLUSTER_PARAMS = dict(reference.CLUSTER_HP)
_PAIR_PARAMS = {"rho_w": 0.9, "rho_t": 0.9, "rho_d": 0.9,
                "sigma_t2": 0.19, "sigma_d2": 0.37, "sigma_w2": 3.29}


def cluster_config(seed: int) -> dict:
    """Criterion-7 shape: 2 integer parameters, one type II constraint,
    2 objectives (2n, 3k), 20 initial points, 30 iterations, default PSO."""
    return {
        "scenario": "cluster_rct",
        "design_space": [
            {"name": "n", "low": reference.CLUSTER_N[0], "up": reference.CLUSTER_N[1],
             "kind": "integer"},
            {"name": "k", "low": reference.CLUSTER_K[0], "up": reference.CLUSTER_K[1],
             "kind": "integer"},
        ],
        "hypotheses": [{"name": "alt", "params": _CLUSTER_PARAMS, "event": "accept"}],
        "constraints": [{"label": "typeII", "hypothesis": "alt",
                         "nominal": reference.CLUSTER_BETA, "confidence": 0.975}],
        "objectives": {"formula": "participants_providers"},
        "reference_point": list(reference.CLUSTER_REF),
        "budget": {"initial_points": 20, "n_per_eval": 100, "iterations": 30},
        "seed": seed,
    }


# Acceptance criterion 12's design points: per scenario, four points under
# the alternative and one under the null.
ORACLE_POINTS = {
    "two_arm_normal": (
        {"delta": 0.5, "sigma": 1.0, "alpha": 0.05},
        {"delta": 0.0, "sigma": 1.0, "alpha": 0.05},
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
        _CLUSTER_PARAMS,
        dict(_CLUSTER_PARAMS, beta1=0.0),
        [{"n": 100, "k": 5}, {"n": 250, "k": 10}, {"n": 420, "k": 20},
         {"n": 120, "k": 3}],
        {"n": 250, "k": 10},
    ),
    "co_primary": (
        dict(_PAIR_PARAMS, beta1_f=1.10, beta1_d=1.10, alpha=0.05),
        dict(_PAIR_PARAMS, beta1_f=0.0, beta1_d=0.0, alpha=0.05),
        [{"n": 100, "k": 5}, {"n": 200, "k": 10}, {"n": 300, "k": 15},
         {"n": 160, "k": 8}],
        {"n": 150, "k": 6},
    ),
    "pilot_either": (
        dict(_PAIR_PARAMS, beta1_f=1.10, beta1_d=1.10),
        dict(_PAIR_PARAMS, beta1_f=0.0, beta1_d=0.0),
        [{"n1": 60, "k": 3, "r": 0.8, "j": 6, "a": 0.1},
         {"n1": 80, "k": 4, "r": 1.0, "j": 9, "a": 0.15},
         {"n1": 100, "k": 10, "r": 1.5, "j": 20, "a": 0.2},
         {"n1": 50, "k": 2, "r": 0.5, "j": 3, "a": 0.05}],
        {"n1": 80, "k": 4, "r": 1.0, "j": 9, "a": 0.15},
    ),
}


@dataclass
class Round:
    """What one round did: its wall time (calibration samples taken out) and
    CPU time, the step durations behind iter_s_p50 and the kernel time
    sampled at each step, every timed piece of work with the kernel time
    sampled just before it, a digest of every output, per-operation
    outcomes, and the wall time of its estimates at workers=1 and at
    workers=2."""

    wall: float = 0.0
    cpu: float = 0.0
    steps: list[float] = field(default_factory=list)
    step_kernel: list[float] = field(default_factory=list)
    timed: list[tuple[float, float]] = field(default_factory=list)
    digest: str = ""
    hv_oracle: float = 0.0
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    file_bytes: dict[str, int] = field(default_factory=dict)
    workers_walls: tuple[float, float] = (0.0, 0.0)


class StepClock:
    """Marks the start of each optimiser iteration (one PSO acquisition each)
    and the end of each run, to give per-iteration wall times, and samples
    the calibration kernel between iterations, outside every iteration's
    time. Installed on the untraced rounds only."""

    def __init__(self):
        self.marks: list[tuple[float, bool]] = []  # (time, starts an iteration)
        self.kernel: list[float] = []  # kernel samples, one per iteration
        self._patched = []

    def calibrate(self) -> float:
        """Time the calibration kernel once and keep the sample."""
        self.kernel.append(calibration.sample())
        return self.kernel[-1]

    def install(self):
        from trialopt import engine

        marks = self.marks
        pso, run = engine.pso_maximize, engine.run

        def stamped_pso(*args, **kwargs):
            marks.append((time.perf_counter(), False))
            self.calibrate()
            marks.append((time.perf_counter(), True))
            return pso(*args, **kwargs)

        def stamped_run(*args, **kwargs):
            try:
                return run(*args, **kwargs)
            finally:
                marks.append((time.perf_counter(), False))

        self._patched = [(engine, "pso_maximize", pso), (engine, "run", run)]
        engine.pso_maximize, engine.run = stamped_pso, stamped_run

    def uninstall(self):
        for owner, attr, original in self._patched:
            setattr(owner, attr, original)
        self._patched = []

    def take(self) -> tuple[list[float], list[float]]:
        """Iteration durations since the last call, from each iteration mark
        to the next mark, and the kernel samples taken since the last call."""
        marks, self.marks[:] = list(self.marks), []
        kernel, self.kernel[:] = list(self.kernel), []
        return [b - a for (a, starts), (b, _) in zip(marks, marks[1:]) if starts], kernel


def _digest(paths) -> str:
    h = hashlib.sha256()
    for p in paths:
        h.update(Path(p).read_bytes())
    return h.hexdigest()


def _file_bytes(out: Path) -> dict[str, int]:
    """Sizes of the run directory's log and checkpoint (0 when absent)."""
    return {name: (out / name).stat().st_size if (out / name).exists() else 0
            for name in ("evals.log", "checkpoint.bin")}


def _read_csv(path: Path) -> list[dict[str, str]]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _read_trajectory(path: Path) -> list[float]:
    return [float(r["hypervolume"]) for r in _read_csv(path)]


def _same(a: float, b: float) -> bool:
    return abs(a - b) <= 1e-9 * max(1.0, abs(a), abs(b))


def _check_design(rows, cfg, problems: list[str]) -> None:
    """Every design value inside its bounds, integer dimensions integral."""
    for row in rows:
        for d in cfg["design_space"]:
            v = float(row[d["name"]])
            if not d["low"] <= v <= d["up"]:
                problems.append(f"{d['name']}={v} outside [{d['low']}, {d['up']}]")
            if d.get("kind") == "integer" and v != math.floor(v):
                problems.append(f"integer dimension {d['name']}={v} is not integral")


class Cluster2Obj:
    """``trialopt run`` through ``cli.main`` on the criterion-7 config, once a
    round, checked against the true front and the benchmark's hypervolume."""

    scenario = "cluster_rct"
    min_members = 3
    ops_per_round = 1

    def __init__(self, run_dir: Path, seed: int):
        self.run_dir = run_dir
        self.seed = seed
        self.config_path = run_dir / "config.json"

    def setup(self):
        """Write the config and build the problem from it, as ``run`` will."""
        from trialopt import cli

        self.cfg = cluster_config(self.seed)
        self.config_path.write_text(json.dumps(self.cfg))
        cli.build_problem(cli.normalize_config(cli.load_config(self.config_path)))

    def prepare_reference(self):
        """Oracle work done once per run, outside every timed region."""
        self.hv_star = reference.cluster_hv_star()

    def run_round(self, index: int, clock: StepClock | None, tracer=None) -> Round:
        from trialopt import cli

        if tracer is not None:
            tracer.scenario = self.scenario
        out = self.run_dir / f"round{index}"
        rnd = Round(attempted=self.ops_per_round)
        wall0, cpu0 = time.perf_counter(), time.process_time()
        code = cli.main(["run", str(self.config_path), "--out", str(out)])
        rnd.wall = time.perf_counter() - wall0
        rnd.cpu = time.process_time() - cpu0
        if clock is not None:
            rnd.steps, rnd.step_kernel = clock.take()
            rnd.timed = list(zip(rnd.steps, rnd.step_kernel))
            rnd.wall -= sum(rnd.step_kernel)
        if code != 0:  # a failed operation, counted but not checked
            rnd.failed = 1
            return rnd
        names = ("pareto.csv", "trajectory.csv", "evals.log", "checkpoint.bin")
        rnd.digest = _digest(out / n for n in names)
        rnd.file_bytes = _file_bytes(out)
        self.check(out, rnd)
        shutil.rmtree(out, ignore_errors=True)
        return rnd

    def check(self, out: Path, rnd: Round):
        problems = rnd.problems
        rows = _read_csv(out / "pareto.csv")
        trajectory = _read_trajectory(out / "trajectory.csv")
        if len(trajectory) != self.cfg["budget"]["iterations"] + 1:
            problems.append(f"trajectory has {len(trajectory)} entries")
        _check_design(rows, self.cfg, problems)
        objs = [(float(r["participants"]), float(r["providers"])) for r in rows]
        type2 = [reference.cluster_type2(float(r["n"]), float(r["k"])) for r in rows]
        limit = reference.CLUSTER_BETA + ORACLE_TOLERANCE
        feasible = [o for o, b in zip(objs, type2) if b <= limit]
        for row, obj, b in zip(rows, objs, type2):
            if obj != reference.cluster_objectives(float(row["n"]), float(row["k"])):
                problems.append(f"objectives {obj} differ from (2n, 3k)")
            if b > limit:
                problems.append(f"member {obj} has oracle type II {b:.4f} > {limit}")
        if len(feasible) < self.min_members:
            problems.append(f"{len(feasible)} oracle-feasible members, "
                            f"fewer than {self.min_members}")
        if not reference.nondominated(objs):
            problems.append("members are not mutually nondominated")
        hv = reference.dominated_volume(objs, reference.CLUSTER_REF)
        if not _same(hv, trajectory[-1]):
            problems.append(f"hypervolume {hv!r} differs from reported {trajectory[-1]!r}")
        # Members meeting the type II bound exactly are dominated by the true
        # front, so their volume cannot exceed HV*.
        strict = [o for o, b in zip(objs, type2) if b <= reference.CLUSTER_BETA]
        if reference.dominated_volume(strict, reference.CLUSTER_REF) > self.hv_star:
            problems.append(f"oracle-feasible members exceed HV* {self.hv_star}")
        rnd.hv_oracle = reference.dominated_volume(feasible, reference.CLUSTER_REF)


@dataclass
class OracleCheck:
    """One Monte Carlo estimate and the oracle it must agree with."""

    scenario: str
    x: dict
    params: dict
    oracle: float = 0.0

    def call(self):
        """The simulator, point and hypothesis, as ``trialopt verify`` passes them."""
        from trialopt.domain import DesignPoint, DesignSpace, Dimension, Hypothesis
        from trialopt.simlib import get_scenario

        space = DesignSpace(tuple(Dimension(d, 0.0, 1e9) for d in self.x))
        return (get_scenario(self.scenario).simulator(space),
                DesignPoint(tuple(self.x.values())), Hypothesis("h", self.params))

    def problem(self, est) -> str | None:
        if reference.within_band(est.successes, est.n_samples, self.oracle, BAND_Z):
            return None
        return (f"{self.scenario} {self.x}: estimate {est.mean} is more than {BAND_Z} "
                f"standard errors from oracle {self.oracle}")


class McOracle:
    """Oracle-checked Monte Carlo estimates at the criterion-12 points, the
    null points again at workers=1 and workers=2, and the fixed-design
    comparator (``trialopt baseline``) on the criterion-7 problem."""

    scenario = "cluster_rct"

    def __init__(self, run_dir: Path, seed: int):
        self.run_dir = run_dir
        self.seed = seed
        self.config_path = run_dir / "baseline.json"

    def setup(self):
        self.checks, self.subset = [], []
        for name, (alt, null, points, null_point) in ORACLE_POINTS.items():
            null_check = OracleCheck(name, null_point, null)
            self.checks += [OracleCheck(name, x, alt) for x in points] + [null_check]
            self.subset.append(null_check)
        self.calls = {id(c): c.call() for c in self.checks}
        self.cfg = cluster_config(self.seed)
        self.config_path.write_text(json.dumps(self.cfg))
        self.ops_per_round = len(self.checks) + len(self.subset) + 1

    def prepare_reference(self):
        from trialopt.simlib import get_scenario

        for c in self.checks:
            c.oracle = get_scenario(c.scenario).rejection_rate(c.x, c.params)

    def _seed(self, index: int) -> int:
        return 1000 * self.seed + index

    def run_round(self, index: int, clock, tracer=None) -> Round:
        from trialopt import cli, montecarlo

        rnd = Round(attempted=self.ops_per_round)
        out = self.run_dir / f"round{index}"

        def kernel() -> float:
            """A calibration sample before a step; none on traced rounds."""
            return clock.calibrate() if clock is not None else 0.0

        wall0, cpu0 = time.perf_counter(), time.process_time()
        estimates, pairs, walls = [], [], []
        for i, c in enumerate(self.checks):
            if tracer is not None:
                tracer.scenario = c.scenario
            k = kernel()
            t0 = time.perf_counter()
            estimates.append(montecarlo.mc_estimate(*self.calls[id(c)], MC_REPLICATES,
                                                    seed=self._seed(i)))
            walls.append(time.perf_counter() - t0)
            rnd.timed.append((walls[-1], k))
        # a step is the p-th point of every scenario: five estimates whose
        # costs differ by scenario (25 to 220 us a replicate) but not by step
        per = len(self.checks) // len(ORACLE_POINTS)
        rnd.steps = [sum(walls[p::per]) for p in range(per)]
        rnd.step_kernel = [sum(d * k for d, k in rnd.timed[p::per]) / step
                           for p, step in enumerate(rnd.steps)]
        worker_walls = [0.0, 0.0]
        for i, c in enumerate(self.subset):
            if tracer is not None:
                tracer.scenario = c.scenario
            seed = self._seed(len(self.checks) + i)
            pair = []
            for w in (1, 2):
                k = kernel()
                t0 = time.perf_counter()
                pair.append(montecarlo.mc_estimate(*self.calls[id(c)], WORKER_REPLICATES,
                                                   seed=seed, workers=w))
                dt = time.perf_counter() - t0
                worker_walls[w - 1] += dt
                rnd.timed.append((dt, k))
            pairs.append(pair)
        rnd.workers_walls = tuple(worker_walls)
        if tracer is not None:
            tracer.scenario = self.scenario
        k = kernel()
        t0 = time.perf_counter()
        code = cli.main(["baseline", str(self.config_path), "--out", str(out),
                         "--count", "50"])
        rnd.timed.append((time.perf_counter() - t0, k))
        rnd.wall = time.perf_counter() - wall0 - sum(k for _, k in rnd.timed)
        rnd.cpu = time.process_time() - cpu0

        found = [c.problem(e) for c, e in zip(self.checks, estimates)]
        found += [c.problem(one) for c, (one, _) in zip(self.subset, pairs)]
        found += [f"{c.scenario}: workers=2 estimate {two} != workers=1 {one}"
                  for c, (one, two) in zip(self.subset, pairs) if one != two]
        rnd.problems += [p for p in found if p]
        parts = [repr([(e.successes, e.n_samples) for e in estimates]),
                 repr([(a.successes, b.successes) for a, b in pairs])]
        if code != 0:
            rnd.failed += 1
        else:
            parts.append(_digest([out / "pareto.csv", out / "evals.log"]))
            rnd.file_bytes = _file_bytes(out)
            self.check_baseline(out, rnd)
        rnd.digest = hashlib.sha256("".join(parts).encode()).hexdigest()
        shutil.rmtree(out, ignore_errors=True)
        return rnd

    def check_baseline(self, out: Path, rnd: Round):
        """The comparator keeps Sobol points whose estimate plus z(0.975)
        standard errors clears the bound, then Pareto-filters them."""
        from scipy.stats import norm

        problems = rnd.problems
        rows = _read_csv(out / "pareto.csv")
        _check_design(rows, self.cfg, problems)
        objs = [(float(r["participants"]), float(r["providers"])) for r in rows]
        z = norm.ppf(0.975)
        for row, obj in zip(rows, objs):
            if obj != reference.cluster_objectives(float(row["n"]), float(row["k"])):
                problems.append(f"baseline objectives {obj} differ from (2n, 3k)")
            est, n = float(row["estimate[typeII]"]), int(row["n[typeII]"])
            y = min(max(est, 0.5 / n), 1.0 - 0.5 / n)
            if not est + z * math.sqrt(y * (1.0 - y) / n) < reference.CLUSTER_BETA:
                problems.append(f"baseline member {obj} fails its own confidence bound")
        if not reference.nondominated(objs):
            problems.append("baseline members are not mutually nondominated")
        reported = None
        for line in (out / "report.txt").read_text().splitlines():
            if line.startswith("hypervolume:"):
                reported = float(line.split(":", 1)[1])
        hv = reference.dominated_volume(objs, reference.CLUSTER_REF)
        if reported is None or not _same(hv, reported):
            problems.append(f"baseline hypervolume {hv!r} differs from reported {reported!r}")
        feasible = [o for r, o in zip(rows, objs)
                    if reference.cluster_type2(float(r["n"]), float(r["k"]))
                    <= reference.CLUSTER_BETA + ORACLE_TOLERANCE]
        rnd.hv_oracle = reference.dominated_volume(feasible, reference.CLUSTER_REF)


WORKLOADS = {"cluster_2obj": Cluster2Obj, "mc_oracle": McOracle}
