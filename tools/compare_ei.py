"""Compare every EI batch of a run in two trialopt checkouts, bit for bit.

    python3 tools/compare_ei.py PARENT_ROOT CHANGE_ROOT --config FILE [--seeds 0-3]

For every seed, each checkout runs ``trialopt run CONFIG --seed S`` in a fresh
interpreter that imports ``trialopt`` from the checkout's own ``src``
directory, with a wrapper on ``engine.expected_improvement_batch`` that keeps
the bytes of every batch's output, in call order, and a wrapper on
``engine.pso_maximize`` that numbers the acquisitions and times them.

Prints, per seed, the batch count of each side, the first batch whose output
differs in any bit (as acquisition and step, both from 1) and each side's
``pso_maximize`` seconds, which include the wrapper's small cost on both
sides. Exits 1 if any batch differs, if the batch counts differ or if a run
fails (0 when every batch matches). Seeds are a comma-separated list of
numbers and ranges, e.g. ``0-3,7``. The runs inherit the environment, so set
anything that should hold for both sides (such as ``OPENBLAS_NUM_THREADS=1``)
before calling this.
"""

from __future__ import annotations

import argparse
import os
import pickle
import subprocess
import sys
import tempfile
from pathlib import Path

from compare_runs import parse_seeds

# run in each checkout's interpreter: argv is (batches file, trialopt run
# arguments...); pickles (acquisition, step, dtype, output bytes) of every EI batch
# and the seconds all the acquisitions took
RECORD = """
import pickle, sys, time
from trialopt import cli, engine

batches, acquisition, step, seconds = [], [0], [0], [0.0]
ei, pso = engine.expected_improvement_batch, engine.pso_maximize

def recording_ei(coords, *args, **kwargs):
    out = ei(coords, *args, **kwargs)
    step[0] += 1
    batches.append((acquisition[0], step[0], out.dtype.str, out.tobytes()))
    return out

def timed_pso(*args, **kwargs):
    acquisition[0] += 1
    step[0] = 0
    start = time.perf_counter()
    try:
        return pso(*args, **kwargs)
    finally:
        seconds[0] += time.perf_counter() - start

engine.expected_improvement_batch = recording_ei
engine.pso_maximize = timed_pso
code = cli.main(sys.argv[2:])
with open(sys.argv[1], "wb") as fh:
    pickle.dump({"batches": batches, "seconds": seconds[0]}, fh)
sys.exit(code)
"""


def record(root: Path, out: Path, config: Path, seed: int, tmp: Path) -> dict | str:
    """The batches of one run in one checkout, or the failure's last lines."""
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    run = subprocess.run(
        [sys.executable, "-c", RECORD, str(out), "run", str(config),
         "--out", str(tmp / out.stem), "--seed", str(seed)],
        env=env, capture_output=True, text=True)
    if run.returncode:
        tail = " | ".join(run.stderr.strip().splitlines()[-3:])
        return f"run failed (exit {run.returncode}): {tail}"
    with open(out, "rb") as fh:
        return pickle.load(fh)


def first_difference(parent: list, change: list) -> tuple | None:
    """The (acquisition, step) of the first batch that differs in position
    or output bytes, or that only one side made; None if there is none."""
    for old, new in zip(parent, change):
        if old != new:
            return old[:2]
    if len(parent) != len(change):
        return max(parent, change, key=len)[min(len(parent), len(change))][:2]
    return None


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent_root", type=Path)
    parser.add_argument("change_root", type=Path)
    parser.add_argument("--config", type=Path, required=True)
    parser.add_argument("--seeds", default="0")
    args = parser.parse_args(argv)
    roots = {"parent": args.parent_root.resolve(), "change": args.change_root.resolve()}
    for label, root in roots.items():
        if not (root / "src" / "trialopt" / "__init__.py").is_file():
            parser.error(f"{label} root {root} has no src/trialopt")
    config = args.config.resolve()

    failures = 0
    with tempfile.TemporaryDirectory(prefix="compare_ei_") as tmp:
        for seed in parse_seeds(args.seeds):
            runs = {label: record(root, Path(tmp) / f"{label}_{seed}.pkl", config,
                                  seed, Path(tmp))
                    for label, root in roots.items()}
            failed = {label: r for label, r in runs.items() if isinstance(r, str)}
            if failed:
                for label, message in failed.items():
                    print(f"seed {seed}: {label} {message}")
                failures += 1
                continue
            parent, change = runs["parent"]["batches"], runs["change"]["batches"]
            where = first_difference(parent, change)
            counts = f"{len(parent)} vs {len(change)} batches"
            if where is None:
                verdict = f"identical ({counts})"
            else:
                verdict = (f"DIFFERENT ({counts}); first at acquisition "
                           f"{where[0]} step {where[1]}")
            print(f"seed {seed}: {verdict}; pso_maximize seconds parent "
                  f"{runs['parent']['seconds']:.3f}, change {runs['change']['seconds']:.3f}")
            failures += where is not None
    print(f"{failures} seed(s) differ" if failures else "all batches identical")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
