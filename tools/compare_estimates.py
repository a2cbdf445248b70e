"""Compare two trialopt checkouts' Monte Carlo estimates at the criterion-12 points.

    python3 tools/compare_estimates.py PARENT_ROOT CHANGE_ROOT \
        [--seeds 5000] [--samples 100000]

The points are acceptance criterion 12's: for each built-in scenario, four
designs under its alternative and one under its null, read from
``CROSS_VALIDATION_POINTS`` in CHANGE_ROOT's ``tests/test_acceptance.py``.
For every seed S, point i of a scenario (counting from 0 in that order) is
estimated with ``mc_estimate(scenario.simulator(space), point, hypothesis,
SAMPLES, seed=S + i)``, the path ``trialopt verify`` takes; the defaults are
criterion 12's own estimates. Each checkout runs all of them in one fresh
interpreter that imports ``trialopt`` from its own ``src`` directory.

Prints one line per estimate with both sides' successes, then each side's
wall time and, per scenario, each side's ``mc_estimate`` microseconds per
replicate; exits 1 on any difference (0 when every estimate matches).
Seeds are a comma-separated list of numbers and ranges, e.g. ``5000,0-3``.
The runs inherit the environment, so set anything that should hold for both
sides (such as ``OPENBLAS_NUM_THREADS=1``) before calling this.
"""

from __future__ import annotations

import argparse
import ast
import json
import os
import subprocess
import sys
from pathlib import Path

from compare_runs import parse_seeds

POINTS_FILE = Path("tests") / "test_acceptance.py"
POINTS_NAME = "CROSS_VALIDATION_POINTS"

# run in each checkout's interpreter: estimates the jobs read from stdin and
# prints their successes, the wall time they took and each mc_estimate call's time
CHILD = """
import json, sys, time
from trialopt.domain import DesignPoint, DesignSpace, Dimension, Hypothesis
from trialopt.montecarlo import mc_estimate
from trialopt.simlib import get_scenario

successes, estimate_seconds = [], []
start = time.perf_counter()
for job in json.load(sys.stdin):
    x = job["x"]
    space = DesignSpace(tuple(Dimension(name, 0.0, 1e9) for name in x))
    sim = get_scenario(job["scenario"]).simulator(space)
    point, hyp = DesignPoint(tuple(x.values())), Hypothesis("h", job["hp"])
    t0 = time.perf_counter()
    est = mc_estimate(sim, point, hyp, job["samples"], seed=job["seed"])
    estimate_seconds.append(time.perf_counter() - t0)
    successes.append(est.successes)
print(json.dumps({"successes": successes, "seconds": time.perf_counter() - start,
                  "estimate_seconds": estimate_seconds}))
"""


def criterion_12_points(test_file: Path) -> dict:
    """The literal value assigned to ``CROSS_VALIDATION_POINTS``."""
    for node in ast.parse(test_file.read_text()).body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == POINTS_NAME
                        for t in node.targets)):
            return ast.literal_eval(node.value)
    raise LookupError(f"{test_file} assigns no {POINTS_NAME}")


def jobs(points: dict, seeds: list[int], samples: int) -> list[dict]:
    out = []
    for seed in seeds:
        for name, (alt_hp, null_hp, designs, null_design) in points.items():
            checks = [(x, alt_hp, "alt") for x in designs] + [(null_design, null_hp, "null")]
            for i, (x, hp, label) in enumerate(checks):
                out.append({"scenario": name, "x": x, "hp": hp, "label": label,
                            "samples": samples, "seed": seed + i})
    return out


def run_checkout(root: Path, work: list[dict]) -> dict:
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    proc = subprocess.run([sys.executable, "-c", CHILD], input=json.dumps(work),
                          env=env, capture_output=True, text=True)
    if proc.returncode:
        raise RuntimeError(f"{root}: " + " | ".join(proc.stderr.strip().splitlines()[-3:]))
    return json.loads(proc.stdout.strip().splitlines()[-1])


def us_per_replicate(work: list[dict], results: dict) -> dict[str, dict[str, float]]:
    """Each side's ``mc_estimate`` microseconds per replicate, by scenario."""
    seconds, replicates = {}, {}
    for k, job in enumerate(work):
        name = job["scenario"]
        replicates[name] = replicates.get(name, 0) + job["samples"]
        cell = seconds.setdefault(name, dict.fromkeys(results, 0.0))
        for label, result in results.items():
            cell[label] += result["estimate_seconds"][k]
    return {name: {label: 1e6 * s / replicates[name] for label, s in cell.items()}
            for name, cell in seconds.items()}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent_root", type=Path)
    parser.add_argument("change_root", type=Path)
    parser.add_argument("--seeds", default="5000")
    parser.add_argument("--samples", type=int, default=100_000)
    args = parser.parse_args(argv)
    roots = {"parent": args.parent_root.resolve(), "change": args.change_root.resolve()}
    for label, root in roots.items():
        if not (root / "src" / "trialopt" / "__init__.py").is_file():
            parser.error(f"{label} root {root} has no src/trialopt")
    if args.samples < 1:
        parser.error("--samples must be >= 1")

    work = jobs(criterion_12_points(roots["change"] / POINTS_FILE),
                parse_seeds(args.seeds), args.samples)
    results = {label: run_checkout(root, work) for label, root in roots.items()}
    differ = 0
    for job, a, b in zip(work, results["parent"]["successes"],
                         results["change"]["successes"]):
        same = a == b
        differ += not same
        print(f"{job['scenario']:15} {job['label']:4} seed {job['seed']:<6} "
              f"{json.dumps(job['x']):50} {a:>8} {b:>8}  {'same' if same else 'DIFFERENT'}")
    for label, result in results.items():
        print(f"{label}: {len(work)} estimates of {args.samples} replicates "
              f"in {result['seconds']:.2f} s")
    print(f"{'us per replicate':15} {'parent':>8} {'change':>8}")
    for scenario, cells in us_per_replicate(work, results).items():
        print(f"{scenario:15} {cells['parent']:8.2f} {cells['change']:8.2f}")
    print(f"{differ} of {len(work)} estimates differ" if differ
          else "all estimates identical")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
