"""The benchmark's tracer and step clock patch trialopt's module attributes
by name from outside the program. A rename of any of those names breaks
only traced benchmark runs, so these tests install both on the current
code, make traced calls and check that uninstalling restores every name."""

from pathlib import Path

import numpy as np
import pytest

from trialopt import engine, pareto
from trialopt.domain import DesignPoint

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture
def perfbench_on_path(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))


def test_tracer_installs_counts_and_uninstalls(perfbench_on_path):
    from tracer import LAYERS, Tracer

    tracer = Tracer()
    tracer.install()
    try:
        patched = list(tracer._patched)
        assert patched
        for owner, attr, original in patched:
            assert getattr(owner, attr) is not original, attr
        points = [(DesignPoint((float(i),)), (float(i), 4.0 - i)) for i in range(4)]
        aset = pareto.ApproximationSet(tuple(engine.pareto_filter(points)), (5.0, 5.0))
        engine.hypervolume(aset)
        pareto.HviCalculator(aset)(np.array([[0.5, 3.5], [9.0, 9.0]]))
    finally:
        tracer.uninstall()
    for owner, attr, original in patched:
        assert getattr(owner, attr) is original, attr
    for name in ("pareto.filter", "pareto.hypervolume", "pareto.hvi_init", "pareto.hvi"):
        assert name in LAYERS
        assert tracer.stats[name].calls == 1, name


def test_step_clock_installs_and_uninstalls(perfbench_on_path):
    from workloads import StepClock

    originals = engine.pso_maximize, engine.run
    clock = StepClock()
    clock.install()
    try:
        assert engine.pso_maximize is not originals[0]
        assert engine.run is not originals[1]
    finally:
        clock.uninstall()
    assert (engine.pso_maximize, engine.run) == originals
