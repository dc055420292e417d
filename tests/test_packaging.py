import ast
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
