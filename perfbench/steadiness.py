"""Two sets of runs of the same code, compared metric by metric.

    python3 perfbench/steadiness.py --runs 10

Run from the checkout root. Set 1 uses seeds 0..runs-1 and set 2 the next
``runs`` seeds; every workload's set 1 runs before any set 2 run, so drift
of the machine between the sets shows. For each workload and end-to-end
metric it prints both medians, both quartile spreads as a share of the
median, and whether the spreads and the shift of the median stay within the
metric's bound. Raw results go to .perfbench_runs/steadiness.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path


def run_once(workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        capture_output=True, text=True, timeout=300)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def spread(values) -> tuple[float, float, float, float]:
    """(median, first quartile, third quartile, quartile distance / median)."""
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med


def report(spec: dict, results: dict) -> bool:
    ok = True
    for workload, sets in results.items():
        print(f"\n{workload}")
        shares = [sum(r["failed"] for r in s) / sum(r["attempted"] for r in s) for s in sets]
        correct = all(r["correct"] for s in sets for r in s)
        print(f"  failed share {shares[0]:.4g} / {shares[1]:.4g}, all correct: {correct}")
        ok &= shares[0] == shares[1] and correct
        for m in spec["end_to_end"]:
            name, bound = m["name"], m["bound"]
            a, b = ([r["metrics"][name]["value"] for r in s] for s in sets)
            (ma, qa1, qa3, sa), (mb, qb1, qb3, sb) = spread(a), spread(b)
            worse = (mb - ma) / ma if m["better"] == "lower" else (ma - mb) / ma
            within = worse <= bound and max(sa, sb) <= bound
            ok &= within
            print(f"  {name:12s} median {ma:.6g} [{qa1:.6g}, {qa3:.6g}] spread {sa:.3f} | "
                  f"{mb:.6g} [{qb1:.6g}, {qb3:.6g}] spread {sb:.3f} | worse {worse:+.3f} "
                  f"bound {bound} {'ok' if within else 'OUT'}"
                  f"{'' if max(sa, sb) < bound / 3 else ' (spread above a third of bound)'}")
    return ok


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--runs", type=int, default=10)
    args = ap.parse_args()
    spec = json.loads(Path("BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    results = {w: [[], []] for w in names}
    out = Path(".perfbench_runs") / "steadiness.json"
    for set_index in (0, 1):
        for w in names:
            for i in range(args.runs):
                seed = set_index * args.runs + i
                start = time.monotonic()
                results[w][set_index].append(run_once(w, seed, spec["run_seconds"]))
                print(f"{w} set {set_index + 1} seed {seed}: "
                      f"{time.monotonic() - start:.1f} s", flush=True)
                out.parent.mkdir(exist_ok=True)  # run.py drops it when empty
                out.write_text(json.dumps(results))
    return 0 if report(spec, results) else 1


if __name__ == "__main__":
    sys.exit(main())
