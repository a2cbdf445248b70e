"""Turns rounds and span statistics into the benchmark's metrics."""

from __future__ import annotations

import statistics

import calibration
from tracer import LAYERS, SpanStat
from workloads import ORACLE_POINTS

LAYER_NAMES = sorted(set(LAYERS.values()) - {"root"})


def _outcome(rounds) -> dict:
    """Operation counts, and the checks that failed on operations that ran.

    Every round does the same work on the same inputs, so any round whose
    outputs differ from the first round's is a failed check too.
    """
    problems = []
    first = next((r.digest for r in rounds if r.digest), "")
    for i, r in enumerate(rounds):
        problems += [f"round {i}: {p}" for p in r.problems]
        if r.digest and r.digest != first:
            problems.append(f"round {i}: outputs differ from round 0")
    return {"attempted": sum(r.attempted for r in rounds),
            "failed": sum(r.failed for r in rounds),
            "problems": problems}


def end_to_end(rounds, rss_mb: float) -> dict:
    """Times of the untraced rounds rescaled to the calibration kernel's
    reference speed: a round's wall time by its kernel samples together,
    each step by the sample taken at that step."""
    factors = [calibration.speed_factor(r.timed) for r in rounds]
    out = _outcome(rounds)
    out["metrics"] = {
        "run_s": statistics.median(r.wall * f for r, f in zip(rounds, factors)),
        "iter_s_p50": statistics.median(
            s * calibration.REFERENCE_S / k
            for r in rounds for s, k in zip(r.steps, r.step_kernel, strict=True)),
        "peak_rss_mb": rss_mb,
        "hv_oracle": rounds[0].hv_oracle,
    }
    out["notes"] = {
        "rounds": len(rounds),
        "wall_s_median": statistics.median(r.wall for r in rounds),
        "iter_wall_s_median": statistics.median(s for r in rounds for s in r.steps),
        "kernel_ms_per_round": [1e3 * calibration.REFERENCE_S / f for f in factors],
    }
    return out


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def per_layer(plain, traced, spans) -> dict:
    """Per-layer figures of one traced round of the workload: the mean over
    its traced rounds, which all do the same work. A layer the workload does
    not call reads 0."""
    n = len(traced)
    per_round = {k: SpanStat(v.calls // n, v.total / n, v.self_time / n, v.units // n)
                 for k, v in spans.items()}

    def s(name):
        return per_round.get(name, SpanStat())

    traced_wall = statistics.mean(r.wall for r in traced)
    plain_wall = statistics.mean(r.wall for r in plain)
    layer_self = dict.fromkeys(set(LAYERS.values()), 0.0)
    for name, stat in per_round.items():
        if name in LAYERS:
            layer_self[LAYERS[name]] += stat.self_time
    bytes_ = traced[0].file_bytes
    mc = s("montecarlo.mc_estimate")
    m = {
        "montecarlo.replicates": mc.units,
        "montecarlo.us_per_replicate": 1e6 * _ratio(mc.total, mc.units),
        "montecarlo.workers2_slowdown": _ratio(sum(r.workers_walls[1] for r in traced),
                                               sum(r.workers_walls[0] for r in traced)),
    }
    for scenario in ORACLE_POINTS:
        st = s("simlib." + scenario)
        m[f"simlib.{scenario}.us_per_replicate"] = 1e6 * _ratio(st.total, st.units)
    fit, predict = s("gp.fit"), s("gp.predict")
    ei, pso, hvi = s("acquisition.ei"), s("acquisition.pso"), s("pareto.hvi")
    m.update({
        "gp.fits": fit.calls,
        "gp.lml_evals": s("gp.lml").calls,
        "gp.fit_s": fit.total,
        "gp.s_per_fit": _ratio(fit.total, fit.calls),
        "gp.predict_rows": predict.units,
        "gp.predict_s": predict.self_time,
        "acquisition.ei_candidates": ei.units,
        "acquisition.ei_us_per_candidate": 1e6 * _ratio(ei.self_time, ei.units),
        "acquisition.pso_s_per_acquisition": _ratio(pso.total, pso.calls),
        "pareto.hvi_calls": hvi.calls,
        "pareto.hvi_us_per_call": 1e6 * _ratio(hvi.self_time, hvi.calls),
        "pareto.hypervolume_s": s("pareto.hypervolume").total,
        "pareto.filter_s": s("pareto.filter").total,
        "engine.feasible_set_s": s("engine.feasible_set").total,
        "engine.checkpoint_s": s("engine.checkpoint").total,
        "engine.checkpoint_bytes": bytes_.get("checkpoint.bin", 0),
        "cli.outputs_s": s("cli.outputs").total,
        "cli.evals_log_bytes": bytes_.get("evals.log", 0),
        "trace.overhead_s": traced_wall - plain_wall,
        "trace.coverage": sum(layer_self[k] for k in LAYER_NAMES) / traced_wall,
        "process.cpu_per_wall": sum(r.cpu for r in plain) / sum(r.wall for r in plain),
    })
    for layer in LAYER_NAMES:
        m[f"share.{layer}"] = layer_self[layer] / traced_wall
    out = _outcome(plain + traced)
    out["metrics"] = m
    return out
