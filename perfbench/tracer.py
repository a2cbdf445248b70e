"""Spans around the public functions of each trialopt layer.

The wrappers are installed from outside the program, on the module
attributes that ``engine``, ``acquisition`` and ``cli`` look up at call
time, plus ``HviCalculator.__call__``. Each span adds its duration to its
parent, so a span's self time is its duration minus its children's. Only
per-name aggregates are kept, never individual spans: one cluster_2obj run
makes about 240,000 hypervolume-improvement calls.
"""

from __future__ import annotations

import functools
import time
from dataclasses import dataclass


@dataclass
class SpanStat:
    calls: int = 0
    total: float = 0.0
    self_time: float = 0.0
    units: int = 0


def _rows(args, kwargs, index, name):
    """Leading dimension of an array argument (rows of a batch call)."""
    value = args[index] if len(args) > index else kwargs[name]
    shape = getattr(value, "shape", None)
    return int(shape[0]) if shape and len(shape) > 1 else 1


def _n_samples(args, kwargs):
    return int(args[3] if len(args) > 3 else kwargs["n_samples"])


# span name -> layer; the roots hold the glue between layers (argument
# parsing, the optimisation loop itself) and are reported apart.
LAYERS = {
    "cli.main": "root",
    "engine.run": "root",
    "engine.fixed_design_search": "root",
    "montecarlo.mc_estimate": "simulation",
    "gp.fit": "gp",
    "gp.lml": "gp",
    "gp.build": "gp",
    "gp.predict": "gp",
    "acquisition.pso": "acquisition",
    "acquisition.ei": "acquisition",
    "pareto.hvi": "pareto",
    "pareto.hvi_init": "pareto",
    "pareto.hypervolume": "pareto",
    "pareto.filter": "pareto",
    "engine.feasible_set": "engine",
    "engine.checkpoint": "engine",
    "cli.outputs": "cli",
    "cli.evals_log": "cli",
}


class Tracer:
    """Aggregates span statistics; ``install`` patches, ``uninstall`` restores."""

    def __init__(self):
        self.stats: dict[str, SpanStat] = {}
        self.scenario = ""  # set by the workload before each simulation call
        self._stack: list[list[float]] = []
        self._patched: list[tuple[object, str, object]] = []

    def wrap(self, name, fn, units=None, on_exit=None):
        stat = self.stats.setdefault(name, SpanStat())
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                if stack:
                    stack[-1][0] += elapsed
                stat.calls += 1
                stat.total += elapsed
                stat.self_time += elapsed - frame[0]
                if units is not None:
                    stat.units += units(args, kwargs)
                if on_exit is not None:
                    on_exit(args, kwargs, elapsed)

        return wrapper

    def _patch(self, owner, attr, name, units=None, on_exit=None):
        original = getattr(owner, attr)
        self._patched.append((owner, attr, original))
        setattr(owner, attr, self.wrap(name, original, units, on_exit))

    def _per_scenario(self, args, kwargs, elapsed):
        """Simulation time also kept per scenario, under a name outside LAYERS."""
        stat = self.stats.setdefault("simlib." + self.scenario, SpanStat())
        stat.calls += 1
        stat.total += elapsed
        stat.units += _n_samples(args, kwargs)

    def install(self):
        from trialopt import acquisition, cli, engine, gp, montecarlo, pareto

        rows0 = functools.partial(_rows, index=0, name="coords")
        rows1 = functools.partial(_rows, index=1, name="X")
        self._patch(cli, "main", "cli.main")
        for attr in ("write_pareto_csv", "write_trajectory_csv", "write_report",
                     "write_baseline_csv"):
            self._patch(cli, attr, "cli.outputs")
        original_writer = cli.record_writer

        def record_writer(path):
            handle, write = original_writer(path)
            return handle, self.wrap("cli.evals_log", write)

        self._patched.append((cli, "record_writer", original_writer))
        cli.record_writer = record_writer

        self._patch(engine, "run", "engine.run")
        self._patch(engine, "fixed_design_search", "engine.fixed_design_search")
        self._patch(engine, "recompute_feasible_set", "engine.feasible_set")
        self._patch(engine, "save_checkpoint", "engine.checkpoint")
        self._patch(engine, "fit_hyperparameters", "gp.fit")
        self._patch(engine, "build_model", "gp.build")
        self._patch(gp, "log_marginal_likelihood", "gp.lml")
        for owner in (engine, acquisition, cli):
            self._patch(owner, "gp_predict_many", "gp.predict", rows1)
        self._patch(engine, "pso_maximize", "acquisition.pso")
        self._patch(engine, "expected_improvement_batch", "acquisition.ei", rows0)
        self._patch(pareto.HviCalculator, "__call__", "pareto.hvi")
        self._patch(pareto.HviCalculator, "__init__", "pareto.hvi_init")
        self._patch(engine, "hypervolume", "pareto.hypervolume")
        self._patch(engine, "pareto_filter", "pareto.filter")
        for owner in (engine, montecarlo):
            self._patch(owner, "mc_estimate", "montecarlo.mc_estimate", _n_samples,
                        self._per_scenario)

    def uninstall(self):
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)
