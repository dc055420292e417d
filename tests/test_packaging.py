import argparse
import ast
import importlib
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def imported_packages(source_dir):
    """Top-level names of the absolute imports in a directory's modules."""
    found = set()
    for path in sorted(source_dir.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                found.update(alias.name.partition(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                found.add(node.module.partition(".")[0])
    return found


def declared_dependencies():
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    return {
        re.match(r"[A-Za-z0-9_.-]+", dep).group().lower().replace("-", "_")
        for dep in project["dependencies"]
    }


def third_party_imports():
    return imported_packages(SRC / "oproj") - set(sys.stdlib_module_names) - {"oproj"}


def test_every_runtime_import_is_a_declared_dependency():
    declared, third_party = declared_dependencies(), third_party_imports()
    assert third_party, "no third-party import found"
    assert third_party <= declared, f"undeclared: {sorted(third_party - declared)}"


def test_every_declared_dependency_is_imported():
    declared, third_party = declared_dependencies(), third_party_imports()
    assert declared <= third_party, f"declared but unused: {sorted(declared - third_party)}"


def test_cli_import_loads_no_heavy_modules():
    heavy = ["scipy", "numpy.f2py", "urllib.request", "http.client"]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    probe = f"import sys, oproj.cli; print([m for m in {heavy!r} if m in sys.modules])"
    proc = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def bench_hook_names():
    """(module, dotted name) of every entry of ``WRAPPED`` in
    bench/layers.py, read from its source without importing it."""
    tree = ast.parse((ROOT / "bench" / "layers.py").read_text())
    for node in tree.body:
        targets = [getattr(t, "id", None) for t in getattr(node, "targets", ())]
        if isinstance(node, ast.Assign) and targets == ["WRAPPED"]:
            return [(e.elts[0].value, e.elts[1].value) for e in node.value.elts]
    raise AssertionError("bench/layers.py defines no WRAPPED")


def test_every_bench_hook_name_resolves():
    """The traced benchmark patches these names from outside; one a
    refactor drops silently leaves its layer unmeasured."""
    hooks = bench_hook_names()
    assert hooks
    missing = []
    for module_name, dotted in hooks:
        holder = importlib.import_module(module_name)
        for attr in dotted.split("."):
            holder = getattr(holder, attr, None)
        if holder is None:
            missing.append(f"{module_name}.{dotted}")
    assert missing == []


def test_every_cli_option_is_documented_in_readme():
    from oproj.cli import build_parser

    readme = (ROOT / "README.md").read_text()
    (subcommands,) = [
        a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)
    ]
    missing = sorted(
        option
        for name in ("audit", "validate", "synth")
        for action in subcommands.choices[name]._actions
        if not isinstance(action, argparse._HelpAction)
        for option in action.option_strings
        if not re.search(rf"{re.escape(option)}(?![\w-])", readme)
    )
    assert missing == []
