"""Benchmark entry point: one workload, one seed, one run.

    python3 perfbench/run.py --workload cluster_2obj --seed 0 --seconds 35 --trace 0

Run from the root of a trialopt checkout; the program is imported from its
``src`` directory. Each interpreter is a fresh process, so set-up and memory
belong to the workload: one warm-up set-up (it fills the bytecode and page
caches and is not counted), SETUP_SAMPLES timed set-ups, then the work
process, whose own set-up is one more sample. The last line of standard
output is the JSON result; the lines before it are human-readable notes.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("cluster_2obj", "mc_oracle")
SETUP_SAMPLES = 2
CHILD_TIMEOUT_S = 150


def declared_units(root: Path, trace: int) -> dict[str, str]:
    """Metric names and units as BENCHMARK.json declares them for this mode."""
    spec = json.loads((root / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def child_env(root: Path) -> dict[str, str]:
    """The program from this checkout, and one BLAS thread.

    OpenBLAS otherwise starts a second thread that busy-waits: it doubles
    the CPU time of small GP solves without shortening them, so load from
    neighbours on a 2-core machine leaks into wall time.
    """
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def spawn(args, mode: str, run_dir: Path, env) -> dict:
    cmd = [sys.executable, str(HERE / "child.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--mode", mode, "--run-dir", str(run_dir)]
    spawned = time.monotonic()
    proc = subprocess.run(cmd + ["--spawned", repr(spawned)], env=env,
                          capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr[-4000:])
        raise SystemExit(f"{mode} process exited with {proc.returncode}")
    return json.loads(lines[-1])


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    root = Path.cwd()
    if not (root / "src" / "trialopt" / "__init__.py").is_file():
        print(f"no trialopt sources under {root / 'src'}; run from a checkout root",
              file=sys.stderr)
        return 2
    units = declared_units(root, args.trace)
    env = child_env(root)
    base = root / ".perfbench_runs" / f"{args.workload}-s{args.seed}-p{os.getpid()}"
    try:
        spawn(args, "setup", base / "warmup", env)
        setups = [spawn(args, "setup", base / f"setup{i}", env)
                  for i in range(SETUP_SAMPLES)]
        work = spawn(args, "work", base / "work", env)
    finally:
        shutil.rmtree(base, ignore_errors=True)
        try:
            base.parent.rmdir()  # only when no other run is using it
        except OSError:
            pass
    samples = setups + [work]

    metrics = dict(work["metrics"])
    if args.trace:
        metrics["setup.import_s"] = statistics.median(s["import_s"] for s in samples)
    else:
        metrics["setup_s"] = statistics.median(s["setup_s"] for s in samples)
    if set(metrics) != set(units):
        raise SystemExit(f"metrics {sorted(set(metrics) ^ set(units))} do not match "
                         "BENCHMARK.json")
    for problem in work["problems"]:
        print(f"check failed: {problem}")
    if "notes" in work:
        print("notes: " + json.dumps(work["notes"]))
    print(f"{args.workload} seed {args.seed}: {work['attempted']} operations, "
          f"{work['failed']} failed, set-up samples "
          + ", ".join(f"{s['setup_s']:.3f} (wall {s['setup_wall_s']:.3f})" for s in samples))
    result = {
        "correct": not work["problems"],
        "attempted": work["attempted"],
        "failed": work["failed"],
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in sorted(metrics.items())},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
