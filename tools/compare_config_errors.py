"""Run two trialopt checkouts on malformed configs and compare how each refuses them.

    python3 tools/compare_config_errors.py PARENT_ROOT CHANGE_ROOT

Every case edits ``tools/configs/cluster_2obj.json`` with its
``budget.iterations`` set to 0 (the command line would override the
config's own budget), or to 1 where a case says so. Each checkout runs
``trialopt run CONFIG --out DIR`` and ``trialopt baseline CONFIG --out DIR
--count 5`` on the edited config, each into a fresh directory, in a fresh
interpreter that imports ``trialopt`` from the checkout's own ``src``
directory. The ``resume`` case runs the unedited config with
``--iterations 0 --n-per-eval 20``, then ``trialopt resume
DIR/checkpoint.bin --nominal typeII=1.5`` in that directory.

For every case and command it prints both sides' exit code, the files the
command wrote and its stderr lines (the change's, and the parent's when they
differ), and it names every case whose message text changed. It exits 1 if
the change accepts (exit 0) what the parent refused (exit 2), if a command of
the change that exits 2 wrote a file, or if the change prints a traceback;
0 otherwise. The runs inherit the environment.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

CONFIG = Path(__file__).resolve().parent / "configs" / "cluster_2obj.json"
LINEAR = {"labels": ["a", "b"], "coefficients": [[1.0, 0.0], [0.0, 1.0]]}


def _set(*path_and_value):
    """An edit that sets the entry at a path of keys to a value; several
    (path, value) pairs may follow each other."""
    def edit(cfg):
        for path, value in zip(path_and_value[::2], path_and_value[1::2]):
            target = cfg
            for key in path[:-1]:
                target = target[key]
            target[path[-1]] = value
    return edit


HYP = ("hypotheses", 0, "params")
CASES = {
    # ROADMAP item 9
    "up Infinity": _set(("design_space", 0, "up"), math.inf),
    "reference_point [NaN, 95]": _set(("reference_point",), [math.nan, 95.0]),
    "sigma_w2 -1": _set(HYP + ("sigma_w2",), -1.0),
    "k in [1, 2]": _set(("design_space", 1, "low"), 1, ("design_space", 1, "up"), 2),
    "alpha 2.0": _set(HYP + ("alpha",), 2.0),
    "beta1 'x'": _set(HYP + ("beta1",), "x"),
    "n_per_eval true": _set(("budget", "n_per_eval"), True),
    "iterations true": _set(("budget", "iterations"), True),
    "seed true": _set(("seed",), True),
    "seed -1": _set(("seed",), -1),
    "seed 2**64": _set(("seed",), 2**64),
    "seed 2**70": _set(("seed",), 2**70),
    # problems of different layers, once reported over two runs
    "kind 'weird' + nominal 2.0": _set(("design_space", 0, "kind"), "weird",
                                       ("constraints", 0, "nominal"), 2.0),
    "reference_point [1100] + confidence 0.3": _set(
        ("reference_point",), [1100.0], ("constraints", 0, "confidence"), 0.3),
    "unknown dimension zz + n_per_eval 0": lambda cfg: (
        cfg["design_space"].append({"name": "zz", "low": 0, "up": 1}),
        _set(("budget", "n_per_eval"), 0)(cfg)),
    # names that are not strings
    "label [1]": _set(("constraints", 0, "label"), [1]),
    "dimension name {}": _set(("design_space", 0, "name"), {}),
    "formula ['x']": _set(("objectives", "formula"), ["x"]),
    "constraint hypothesis [1]": _set(("constraints", 0, "hypothesis"), [1]),
    "labels 'ab'": _set(("objectives",), {**LINEAR, "labels": "ab"}),
    # objective coefficients
    "coefficient NaN": _set(("objectives",),
                            {**LINEAR, "coefficients": [[2.0, math.nan], [0.0, 1.0]]}),
    # two hypotheses with one name: the last would replace the first
    "second alt with beta1 0.0": lambda cfg: cfg["hypotheses"].append(
        {**cfg["hypotheses"][0], "params": {**cfg["hypotheses"][0]["params"], "beta1": 0.0}}),
    # misspelt keys, once dropped with their defaults used
    "event misspelt 'evnt'": lambda cfg: cfg["hypotheses"][0].update(
        evnt=cfg["hypotheses"][0].pop("event")),
    "budget.iteration 50": _set(("budget", "iteration"), 50),
    "top-level 'budgett'": _set(("budgett",), {"iterations": 50}),
    # more objectives than the hypervolume covers
    "4 linear objectives": _set(
        ("objectives",), {"labels": ["a", "b", "c", "d"],
                          "coefficients": [[1.0, 0.0], [0.0, 1.0], [1.0, 1.0], [1.0, -1.0]]},
        ("reference_point",), [600.0, 40.0, 600.0, 600.0]),
    # three problems of one budget
    "budget -1 / 0 / 1": _set(("budget",), {"iterations": -1, "n_per_eval": 0,
                                            "initial_points": 1}),
    # values of the wrong kind, all of one budget and one pso
    "budget true / 'x' / 2.5": _set(("budget",), {"iterations": True, "n_per_eval": "x",
                                                  "initial_points": 2.5}),
    "pso 'a' / 'b'": _set(("pso",), {"swarm_size": "a", "inertia": "b"}),
    # integers beyond the float range, once an OverflowError traceback
    "reference_point [10**400, 95]": _set(("reference_point",), [10**400, 95.0]),
    "up 10**400": _set(("design_space", 0, "up"), 10**400),
    # weights that are not finite, met only once the swarm flies: one iteration
    "pso.cognitive Infinity": _set(("pso",), {"cognitive": math.inf},
                                   ("budget", "iterations"), 1),
    "pso.social NaN": _set(("pso",), {"social": math.nan}, ("budget", "iterations"), 1),
}


def trialopt(root: Path, argv: list[str], cwd: Path) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    return subprocess.run([sys.executable, "-m", "trialopt.cli", *argv], env=env,
                          cwd=cwd, capture_output=True, text=True)


def snapshot(directory: Path) -> dict[str, bytes]:
    if not directory.is_dir():
        return {}
    return {str(p.relative_to(directory)): p.read_bytes()
            for p in sorted(directory.rglob("*")) if p.is_file()}


def written(before: dict[str, bytes], after: dict[str, bytes]) -> list[str]:
    return [name for name in sorted(after) if before.get(name) != after[name]]


def run_case(root: Path, work: Path,
             name: str) -> dict[str, tuple[int, list[str], list[str]]]:
    """(exit code, files written, stderr lines) of each command of one case."""
    work.mkdir(parents=True)
    out = {}
    if name == "resume --nominal typeII=1.5":
        run_dir = work / "run"
        setup = trialopt(root, ["run", str(CONFIG), "--out", str(run_dir),
                                "--iterations", "0", "--n-per-eval", "20"], work)
        if setup.returncode:
            raise RuntimeError(f"{root}: the unedited config did not run:\n{setup.stderr}")
        before = snapshot(run_dir)
        done = trialopt(root, ["resume", str(run_dir / "checkpoint.bin"),
                               "--nominal", "typeII=1.5"], work)
        out["resume"] = (done.returncode, written(before, snapshot(run_dir)),
                         done.stderr.splitlines())
        return out
    cfg = json.loads(CONFIG.read_text())
    cfg["budget"]["iterations"] = 0
    CASES[name](cfg)
    path = work / "config.json"
    path.write_text(json.dumps(cfg))
    for command, extra in (("run", []), ("baseline", ["--count", "5"])):
        target = work / command
        done = trialopt(root, [command, str(path), "--out", str(target), *extra], work)
        out[command] = (done.returncode, written({}, snapshot(target)),
                        done.stderr.splitlines())
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent_root", type=Path)
    parser.add_argument("change_root", type=Path)
    args = parser.parse_args(argv)
    roots = {"parent": args.parent_root.resolve(), "change": args.change_root.resolve()}
    for label, root in roots.items():
        if not (root / "src" / "trialopt" / "__init__.py").is_file():
            parser.error(f"{label} root {root} has no src/trialopt")

    faults, changed = [], []
    with tempfile.TemporaryDirectory(prefix="compare_config_errors_") as tmp:
        for index, name in enumerate([*CASES, "resume --nominal typeII=1.5"]):
            sides = {label: run_case(root, Path(tmp) / label / str(index), name)
                     for label, root in roots.items()}
            print(f"case {name}:")
            for command, (code, files, err) in sides["change"].items():
                p_code, p_files, p_err = sides["parent"][command]
                print(f"  {command}: exit {p_code} -> {code}; files written "
                      f"{len(p_files)} -> {len(files)}")
                for line in err:
                    print(f"    change: {line}")
                if p_err != err:
                    changed.append(f"{name} ({command})")
                    for line in p_err:
                        print(f"    parent: {line}")
                if p_code == 2 and code == 0:
                    faults.append(f"{name} ({command}): accepted, the parent refused it")
                if code == 2 and files:
                    faults.append(f"{name} ({command}): refused, but wrote {files}")
                if any(line.startswith("Traceback") for line in err):
                    faults.append(f"{name} ({command}): traceback")
    print(f"message text changed in {len(changed)} case(s):")
    for case in changed:
        print(f"  {case}")
    for fault in faults:
        print(f"FAULT: {fault}")
    print(f"{len(faults)} fault(s)" if faults else "no refusal lost, none writes, "
          "no traceback")
    return 1 if faults else 0


if __name__ == "__main__":
    sys.exit(main())
