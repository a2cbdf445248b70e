"""The comparison tools in tools/ run trialopt in child interpreters, whose
scripts wrap or import trialopt's module attributes by name from outside the
program. A rename of any of those names breaks only the comparisons, and so
the byte-identity evidence they give, so these tests run each tool's
``--help`` and check that every trialopt attribute the child scripts take
still exists."""

import ast
import importlib
import importlib.util
import subprocess
import sys
from pathlib import Path

import pytest

TOOLS = Path(__file__).resolve().parent.parent / "tools"
SCRIPTS = sorted(TOOLS.glob("compare_*.py"))


def child_scripts(path: Path) -> list[str]:
    """The source strings a tool assigns at module level that import trialopt."""
    tree = ast.parse(path.read_text())
    return [node.value.value for node in tree.body
            if isinstance(node, ast.Assign) and isinstance(node.value, ast.Constant)
            and isinstance(node.value.value, str)
            and ("from trialopt" in node.value.value or "import trialopt" in node.value.value)]


def taken_names(source: str) -> set[tuple[str, str]]:
    """(module, attribute) for each name a script imports from a trialopt
    module, and for each attribute it reads or replaces on a trialopt
    module it imported."""
    tree = ast.parse(source)
    modules, names = {}, set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "trialopt":
            for alias in node.names:
                names.add((node.module, alias.name))
                if node.module == "trialopt":
                    modules[alias.asname or alias.name] = f"trialopt.{alias.name}"
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in modules):
            names.add((modules[node.value.id], node.attr))
    return names


def exists(module: str, attr: str) -> bool:
    """Whether ``from module import attr`` would work."""
    return (hasattr(importlib.import_module(module), attr)
            or importlib.util.find_spec(f"{module}.{attr}") is not None)


@pytest.mark.parametrize("path", SCRIPTS, ids=lambda p: p.name)
def test_tool_help_runs(path):
    done = subprocess.run([sys.executable, str(path), "--help"],
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.startswith("usage:")


def test_every_trialopt_name_the_tools_take_exists():
    assert len(SCRIPTS) >= 5
    taken = set()
    for path in SCRIPTS:
        for source in child_scripts(path):
            taken |= taken_names(source)
        if '"trialopt.cli"' in path.read_text():  # run as ``python -m trialopt.cli``
            taken.add(("trialopt.cli", "main"))
    # names known to be taken, so that a parse that finds nothing fails
    assert {("trialopt.engine", "expected_improvement_batch"),
            ("trialopt.engine", "pso_maximize"),
            ("trialopt.engine", "fit_hyperparameters"),
            ("trialopt.gp", "log_marginal_likelihood"),
            ("trialopt.montecarlo", "mc_estimate"),
            ("trialopt.cli", "main")} <= taken
    assert [f"{m}.{a}" for m, a in sorted(taken) if not exists(m, a)] == []
