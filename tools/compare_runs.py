"""Run two trialopt checkouts on one config and compare their run files.

    python3 tools/compare_runs.py PARENT_ROOT CHANGE_ROOT --config FILE \
        --seeds 0-19 [--baseline]

For every seed, each checkout runs ``trialopt run CONFIG --out DIR --seed S``
(``trialopt baseline`` with ``--baseline``) in a fresh interpreter that
imports ``trialopt`` from the checkout's own ``src`` directory. Every file
the two runs leave is compared byte for byte, and so are their exit codes;
the ``elapsed seconds`` line of ``report.txt`` is wall time and is the one
line left out. Prints one line per seed and every file that differs, and
exits 1 on any difference (0 when every run matches).

Seeds are a comma-separated list of numbers and ranges, e.g. ``0-3,7``.
The runs inherit the environment, so set anything that should hold for
both sides (such as ``OPENBLAS_NUM_THREADS=1``) before calling this.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
import tempfile
from pathlib import Path

# the one line of a run directory that is not a function of the inputs
_WALL_TIME_PREFIX = b"elapsed seconds:"


def parse_seeds(text: str) -> list[int]:
    seeds: list[int] = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_checkout(root: Path, command: str, config: Path, seed: int,
                 out: Path) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    return subprocess.run(
        [sys.executable, "-m", "trialopt.cli", command, str(config),
         "--out", str(out), "--seed", str(seed)],
        env=env, cwd=out.parent, capture_output=True, text=True,
    )


def run_files(out: Path) -> dict[str, bytes]:
    """Every file of a run directory, the wall-time line taken out."""
    files = {}
    for path in sorted(p for p in out.rglob("*") if p.is_file()):
        data = path.read_bytes()
        if path.name == "report.txt":
            data = b"".join(line for line in data.splitlines(keepends=True)
                            if not line.startswith(_WALL_TIME_PREFIX))
        files[str(path.relative_to(out))] = data
    return files


def differing(parent: dict[str, bytes], change: dict[str, bytes]) -> list[str]:
    return [name for name in sorted(set(parent) | set(change))
            if parent.get(name) != change.get(name)]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent_root", type=Path)
    parser.add_argument("change_root", type=Path)
    parser.add_argument("--config", type=Path, required=True)
    parser.add_argument("--seeds", default="0")
    parser.add_argument("--baseline", action="store_true",
                        help="compare 'trialopt baseline' instead of 'trialopt run'")
    args = parser.parse_args(argv)
    roots = {"parent": args.parent_root.resolve(), "change": args.change_root.resolve()}
    for label, root in roots.items():
        if not (root / "src" / "trialopt" / "__init__.py").is_file():
            parser.error(f"{label} root {root} has no src/trialopt")
    config = args.config.resolve()
    command = "baseline" if args.baseline else "run"

    failures = 0
    with tempfile.TemporaryDirectory(prefix="compare_runs_") as tmp:
        for seed in parse_seeds(args.seeds):
            results, files = {}, {}
            for label, root in roots.items():
                out = Path(tmp) / f"{label}_{seed}"
                results[label] = run_checkout(root, command, config, seed, out)
                files[label] = run_files(out) if out.is_dir() else {}
            codes = [results[label].returncode for label in roots]
            diff = differing(files["parent"], files["change"])
            if codes[0] != codes[1] or diff:
                failures += 1
                print(f"seed {seed}: DIFFERENT (exit {codes[0]} vs {codes[1]}; "
                      f"{len(diff)} of {len(files['change'])} files differ)")
                for name in diff:
                    print(f"    {name}")
                for label in roots:
                    if results[label].returncode:
                        tail = results[label].stderr.strip().splitlines()[-3:]
                        print(f"    {label} stderr: " + " | ".join(tail))
            else:
                print(f"seed {seed}: identical (exit {codes[0]}; "
                      f"{len(files['change'])} files: {', '.join(files['change'])})")
    print(f"{failures} seed(s) differ" if failures else "all runs identical")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
