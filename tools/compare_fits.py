"""Replay the GP hyperparameter fits of a run in two trialopt checkouts.

    python3 tools/compare_fits.py PARENT_ROOT CHANGE_ROOT --config FILE [--seeds 0-3]

For every seed, PARENT_ROOT's ``trialopt run CONFIG --seed S`` runs once in a
fresh interpreter that records the arguments of every
``fit_hyperparameters`` call the engine makes: the training inputs, targets
and noise variances, and the warm starts. Then each checkout replays all the
recorded fits in a fresh interpreter of its own, and evaluates the negative
log marginal likelihood at each optimum with its own
``log_marginal_likelihood``.

Prints one line per fit with both sides' sigma, lengthscales and negative
log-likelihood (a fit that raises shows the exception's name), then each
side's total fit seconds. Exits 1 if any value differs in any bit (0 when
every fit matches). Seeds are a comma-separated list of numbers and ranges,
e.g. ``0-3,7``. The runs inherit the environment, so set anything that should
hold for both sides (such as ``OPENBLAS_NUM_THREADS=1``) before calling this.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

from compare_runs import parse_seeds

# run in the parent checkout's interpreter: argv is (fits file, trialopt run
# arguments...); pickles the arguments of every fit the run makes
RECORD = """
import pickle, sys
from trialopt import cli, engine

calls = []
fit = engine.fit_hyperparameters

def recording(inputs, targets, noise, extra_starts=()):
    calls.append((inputs.copy(), targets.copy(), noise.copy(),
                  [(p.sigma, p.lengthscales) for p in extra_starts]))
    return fit(inputs, targets, noise, extra_starts=extra_starts)

engine.fit_hyperparameters = recording
code = cli.main(sys.argv[2:])
with open(sys.argv[1], "wb") as fh:
    pickle.dump(calls, fh)
sys.exit(code)
"""

# run in each checkout's interpreter: argv is the fits file; prints every
# optimum as hex floats and the seconds all the fits took
REPLAY = """
import json, pickle, sys, time
from trialopt.gp import KernelParams, fit_hyperparameters, log_marginal_likelihood

with open(sys.argv[1], "rb") as fh:
    calls = pickle.load(fh)
fits, seconds = [], 0.0
for inputs, targets, noise, warm in calls:
    starts = [KernelParams(s, ls) for s, ls in warm]
    start = time.perf_counter()
    try:
        params = fit_hyperparameters(inputs, targets, noise, extra_starts=starts)
    except Exception as exc:
        seconds += time.perf_counter() - start
        fits.append({"error": type(exc).__name__})
        continue
    seconds += time.perf_counter() - start
    nll = -log_marginal_likelihood(inputs, targets, noise, params)
    fits.append({"sigma": params.sigma.hex(),
                 "lengthscales": [v.hex() for v in params.lengthscales],
                 "nll": nll.hex()})
print(json.dumps({"fits": fits, "seconds": seconds}))
"""


def python(root: Path, script: str, *args: str) -> subprocess.CompletedProcess:
    """Run ``script`` in a fresh interpreter that imports the checkout's
    ``trialopt``."""
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    return subprocess.run([sys.executable, "-c", script, *args], env=env,
                          capture_output=True, text=True)


def show(fit: dict) -> str:
    if "error" in fit:
        return f"raises {fit['error']}"
    ls = ", ".join(f"{float.fromhex(v):.6g}" for v in fit["lengthscales"])
    return (f"sigma {float.fromhex(fit['sigma']):.6g}, lengthscales ({ls}), "
            f"nll {float.fromhex(fit['nll']):.10g}")


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
    with tempfile.TemporaryDirectory(prefix="compare_fits_") as tmp:
        for seed in parse_seeds(args.seeds):
            fits_file = str(Path(tmp) / f"fits_{seed}.pkl")
            run = python(roots["parent"], RECORD, fits_file, "run", str(config),
                         "--out", str(Path(tmp) / f"run_{seed}"), "--seed", str(seed))
            if run.returncode:
                tail = " | ".join(run.stderr.strip().splitlines()[-3:])
                print(f"seed {seed}: parent run failed (exit {run.returncode}): {tail}")
                failures += 1
                continue
            fits, seconds = {}, {}
            for label, root in roots.items():
                replay = python(root, REPLAY, fits_file)
                if replay.returncode:
                    sys.exit(f"seed {seed}: {label} replay failed: {replay.stderr.strip()}")
                result = json.loads(replay.stdout)
                fits[label], seconds[label] = result["fits"], result["seconds"]
            differ = 0
            for i, (old, new) in enumerate(zip(fits["parent"], fits["change"])):
                same = old == new
                differ += not same
                print(f"seed {seed} fit {i}: {'identical' if same else 'DIFFERENT'}")
                print(f"    parent {show(old)}")
                print(f"    change {show(new)}")
            print(f"seed {seed}: {len(fits['change']) - differ} of "
                  f"{len(fits['change'])} fits identical; fit seconds parent "
                  f"{seconds['parent']:.3f}, change {seconds['change']:.3f}")
            failures += differ > 0
    print(f"{failures} seed(s) differ" if failures else "all fits identical")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
