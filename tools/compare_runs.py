"""Run two trialopt checkouts on one config and compare their run files.

    python3 tools/compare_runs.py PARENT_ROOT CHANGE_ROOT --config FILE \
        --seeds 0-19 [--baseline | [--resume K [--nominal LABEL=VALUE ...]
                                               [--resume-out]]
                                   [--verify N]]

For every seed, each checkout runs ``trialopt run CONFIG --out DIR --seed S``
(``trialopt baseline`` with ``--baseline``) in a fresh interpreter that
imports ``trialopt`` from the checkout's own ``src`` directory. With
``--resume K`` the run stops K iterations short of the config's
``budget.iterations`` and ``trialopt resume DIR/checkpoint.bin --iterations
K`` finishes it, given each ``--nominal LABEL=VALUE`` (repeatable) to revise
that constraint's bound. With ``--resume-out`` the resume writes to a fresh
sibling directory, ``DIR_resumed``, through ``resume --out``, and both
directories are compared. With ``--verify N``, ``trialopt verify
--n-verify N`` follows on the directory the run finished in, adding
pareto_verified.csv. The commands of one seed stop at the first that fails.
Every file the commands leave is compared byte for byte, and so are their
exit codes; the ``elapsed seconds`` line of ``report.txt`` is wall time and
is the one line left out. Prints one line
per seed and every file that differs, and exits 1 on any difference (0 when
every run matches).

Seeds are a comma-separated list of numbers and ranges, e.g. ``0-3,7``.
The runs inherit the environment, so set anything that should hold for
both sides (such as ``OPENBLAS_NUM_THREADS=1``) before calling this.
"""

from __future__ import annotations

import argparse
import json
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


def resumed_dir(out: Path) -> Path:
    """The directory ``--resume-out`` resumes a run directory into."""
    return out.with_name(out.name + "_resumed")


def commands(args: argparse.Namespace, iterations: int | None, seed: int,
             out: Path) -> list[list[str]]:
    """The trialopt command lines one seed runs, in order."""
    first = ["baseline" if args.baseline else "run", str(args.config),
             "--out", str(out), "--seed", str(seed)]
    last = out
    if args.resume is None:
        steps = [first]
    else:
        resume = ["resume", str(out / "checkpoint.bin"), "--iterations", str(args.resume)]
        resume += [arg for pair in args.nominal for arg in ("--nominal", pair)]
        if args.resume_out:
            last = resumed_dir(out)
            resume += ["--out", str(last)]
        steps = [first + ["--iterations", str(iterations - args.resume)], resume]
    if args.verify is not None:
        steps.append(["verify", str(last), "--n-verify", str(args.verify)])
    return steps


def run_checkout(root: Path, steps: list[list[str]],
                 cwd: Path) -> list[subprocess.CompletedProcess]:
    """Run the commands in order with the checkout's ``trialopt``, stopping
    after the first that fails."""
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    results = []
    for argv in steps:
        results.append(subprocess.run(
            [sys.executable, "-m", "trialopt.cli", *argv],
            env=env, cwd=cwd, capture_output=True, text=True,
        ))
        if results[-1].returncode:
            break
    return results


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
    parser.add_argument("--resume", type=int, metavar="K",
                        help="run K iterations short, then resume for K")
    parser.add_argument("--nominal", action="append", default=[],
                        metavar="LABEL=VALUE",
                        help="revise a constraint bound on the resume step")
    parser.add_argument("--resume-out", action="store_true",
                        help="resume into a fresh sibling directory with 'resume --out'")
    parser.add_argument("--verify", type=int, metavar="N",
                        help="then verify with N replicates per estimate")
    args = parser.parse_args(argv)
    if args.baseline and (args.resume is not None or args.verify is not None):
        parser.error("--baseline takes neither --resume nor --verify")
    if args.nominal and args.resume is None:
        parser.error("--nominal needs --resume")
    if args.resume_out and args.resume is None:
        parser.error("--resume-out needs --resume")
    roots = {"parent": args.parent_root.resolve(), "change": args.change_root.resolve()}
    for label, root in roots.items():
        if not (root / "src" / "trialopt" / "__init__.py").is_file():
            parser.error(f"{label} root {root} has no src/trialopt")
    args.config = args.config.resolve()
    iterations = None
    if args.resume is not None:
        iterations = json.loads(args.config.read_text()).get("budget", {}).get("iterations")
        if not isinstance(iterations, int) or not 0 <= args.resume <= iterations:
            parser.error("--resume K needs an integer budget.iterations of at "
                         "least K in the config")

    failures = 0
    with tempfile.TemporaryDirectory(prefix="compare_runs_") as tmp:
        for seed in parse_seeds(args.seeds):
            results, files, codes = {}, {}, {}
            for label, root in roots.items():
                out = Path(tmp) / f"{label}_{seed}"
                results[label] = run_checkout(
                    root, commands(args, iterations, seed, out), Path(tmp))
                codes[label] = " ".join(str(r.returncode) for r in results[label])
                files[label] = run_files(out) if out.is_dir() else {}
                if args.resume_out and resumed_dir(out).is_dir():
                    files[label].update(
                        (f"resumed/{name}", data)
                        for name, data in run_files(resumed_dir(out)).items())
            diff = differing(files["parent"], files["change"])
            if codes["parent"] != codes["change"] or diff:
                failures += 1
                print(f"seed {seed}: DIFFERENT (exit {codes['parent']} vs "
                      f"{codes['change']}; {len(diff)} of {len(files['change'])} "
                      "files differ)")
                for name in diff:
                    print(f"    {name}")
                for label in roots:
                    if results[label][-1].returncode:
                        tail = results[label][-1].stderr.strip().splitlines()[-3:]
                        print(f"    {label} stderr: " + " | ".join(tail))
            else:
                print(f"seed {seed}: identical (exit {codes['change']}; "
                      f"{len(files['change'])} files: {', '.join(files['change'])})")
    print(f"{failures} seed(s) differ" if failures else "all runs identical")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
