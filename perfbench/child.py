"""One fresh interpreter: set up a workload and, in ``work`` mode, run it.

Started by ``run.py``, which records the monotonic clock just before the
process starts; set-up time is the gap to the moment this process is ready.
Prints one JSON object as its last line of output.
"""

import argparse
import json
import resource
import statistics
import sys
import time
from pathlib import Path


def _import_trialopt() -> float:
    start = time.perf_counter()
    import trialopt.cli  # noqa: F401  the import every user pays

    elapsed = time.perf_counter() - start
    src = (Path.cwd() / "src").resolve()
    if src not in Path(sys.modules["trialopt"].__file__).resolve().parents:
        raise SystemExit(f"trialopt was imported from outside {src}")
    return elapsed


def _speed_factor_now() -> float:
    """The calibration kernel's reference time over its median of 15 calls
    made just after set-up, to rescale the set-up time as the rounds are."""
    import calibration

    calibration.warm_up(5)
    return calibration.REFERENCE_S / statistics.median(
        calibration.sample() for _ in range(15))


def _untraced(workload, seconds):
    import calibration
    from workloads import StepClock

    calibration.warm_up()
    clock = StepClock()
    clock.install()
    rounds = []
    start = time.perf_counter()
    try:
        while not rounds or time.perf_counter() - start < seconds:
            rounds.append(workload.run_round(len(rounds), clock))
    finally:
        clock.uninstall()
    return rounds


def _traced(workload, seconds):
    """Untraced and traced rounds alternate."""
    from tracer import Tracer

    tracer = Tracer()
    plain, traced = [], []
    start = time.perf_counter()
    while not traced or time.perf_counter() - start < seconds:
        plain.append(workload.run_round(2 * len(traced), None))
        tracer.install()
        try:
            traced.append(workload.run_round(2 * len(traced) + 1, None, tracer))
        finally:
            tracer.uninstall()
    return plain, traced, tracer.stats


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--mode", choices=("setup", "work"), required=True)
    ap.add_argument("--run-dir", required=True)
    ap.add_argument("--spawned", type=float, required=True)
    args = ap.parse_args()

    import_s = _import_trialopt()
    import metrics
    from workloads import WORKLOADS

    run_dir = Path(args.run_dir)
    run_dir.mkdir(parents=True, exist_ok=True)
    workload = WORKLOADS[args.workload](run_dir, args.seed)
    workload.setup()
    setup_wall_s = time.monotonic() - args.spawned
    result = {"setup_s": setup_wall_s * _speed_factor_now(), "setup_wall_s": setup_wall_s,
              "import_s": import_s}
    if args.mode == "work":
        workload.prepare_reference()
        if args.trace:
            result.update(metrics.per_layer(*_traced(workload, args.seconds)))
        else:
            rounds = _untraced(workload, args.seconds)
            rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            result.update(metrics.end_to_end(rounds, rss_mb))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
