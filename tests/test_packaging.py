import argparse
import ast
import dataclasses
import importlib
import importlib.util
import json
import os
import pkgutil
import re
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
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


def load_bench_module(name, monkeypatch):
    """bench/<name>.py imported by path, under the name that the
    benchmark's scripts import it by, for the length of the test."""
    spec = importlib.util.spec_from_file_location(name, ROOT / "bench" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, name, module)
    spec.loader.exec_module(module)
    return module


def test_every_traced_route_reports_every_declared_layer(tmp_path, monkeypatch):
    """One tiny traced audit per benchmark route. A layer that a refactor
    stops calling, or calls under another name, would leave its declared
    per-layer metric absent or missing in the benchmark's result."""
    import oproj.ranking as ranking
    from oproj.adapters import InProcessModel
    from oproj.dataio import SyntheticSpec, generate_synthetic, save_csv

    spans = load_bench_module("spans", monkeypatch)
    layers = load_bench_module("layers", monkeypatch)
    X, y, _ = generate_synthetic(SyntheticSpec(n=300, coefficients=(5, 4, 3, 2, 1), seed=3))
    csv = tmp_path / "data.csv"
    save_csv(X, csv, target=y)
    traces = {}

    rec = spans.Recorder()
    undo, missing = layers.install(rec)
    try:
        w = np.arange(X.k, 0, -1, dtype=np.float64)
        model = InProcessModel(lambda a: a @ w + 0.5 * a[:, 0] ** 2)
        ranking.rank_all(model, X, ranking.AuditConfig())
    finally:
        layers.uninstall(undo)
    traces["inproc"] = (rec.dump(), missing)

    model = shlex.join([sys.executable, str(ROOT / "bench" / "model.py"), str(tmp_path / "n")])
    routes = {
        "surrogate": ["--surrogate", "ridge", "--transforms", "none"],
        "subprocess": ["--model", model, "--transforms", "all"],
    }
    for route, args in routes.items():
        spans_file = tmp_path / f"{route}.json"
        argv = ["audit", "--data", str(csv), *args, "--target", "column:target"]
        assert layers.main([str(spans_file), *argv, "--out", str(tmp_path / route)]) == 0
        dump = json.loads(spans_file.read_text(encoding="utf-8"))
        traces[route] = (dump["trace"], dump["missing"])
    results = {route: layers.layer_metrics(*trace) for route, trace in traces.items()}

    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["per_layer"]
    names = [m["name"] for m in declared if m["name"] in layers.LAYER_METRICS]
    assert names
    unmeasured = {
        route: {name: metrics[name] for name in names if isinstance(metrics[name], str)}
        for route, metrics in results.items()
    }
    assert unmeasured == {route: {} for route in results}
    # Five features, each removed with its c candidates: c = 5 under the
    # default and "all" transforms, and 1 under "none".
    counted = {
        route: (metrics["transforms.candidates"], metrics["linalg.kept_ratio"])
        for route, metrics in results.items()
    }
    assert counted == {"inproc": (25, 1.0), "surrogate": (5, 1.0), "subprocess": (25, 1.0)}
    # Each feature's removal is built once and applied once. The surrogate
    # route has no companions, so it never orthonormalizes.
    hooked = ("transforms.candidates", "linalg.orthonormalize", "linalg.project")
    calls = {}
    for route, (trace, _) in traces.items():
        counts = trace["counts"]
        calls[route] = {n: counts[n + ".calls"] for n in hooked if n + ".calls" in counts}
    every = dict.fromkeys(hooked, 5)
    assert calls == {
        "inproc": every,
        "surrogate": {"transforms.candidates": 5, "linalg.project": 5},
        "subprocess": every,
    }


def test_dataio_does_not_import_adapters():
    """The CSV format lives in dataio, which adapters imports; an import
    back, relative or absolute, would split it across the two again."""
    imported = set()
    for node in ast.walk(ast.parse((SRC / "oproj" / "dataio.py").read_text())):
        if isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            module = ".".join(filter(None, ["oproj" if node.level else "", node.module]))
            imported.add(module)
            imported.update(f"{module}.{alias.name}" for alias in node.names)
    assert not [m for m in imported if (m + ".").startswith("oproj.adapters.")]


def test_only_adapters_and_ranking_query_the_model():
    """rank_all issues every query of an audit and adapters implements
    them; a query from anywhere else would be one the k+1 count misses."""
    callers = sorted(
        f"{path.name}:{node.lineno} .{node.func.attr}"
        for path in sorted((SRC / "oproj").glob("*.py"))
        if path.name not in ("adapters.py", "ranking.py")
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr in ("predict_batch", "launch", "collect")
    )
    assert callers == []


def subcommand_parsers():
    from oproj.cli import build_parser

    (subcommands,) = [
        a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)
    ]
    return subcommands.choices


def test_every_cli_option_is_documented_in_readme():
    readme = (ROOT / "README.md").read_text()
    parsers = subcommand_parsers()
    missing = sorted(
        option
        for name in ("audit", "validate", "synth")
        for action in parsers[name]._actions
        if not isinstance(action, argparse._HelpAction)
        for option in action.option_strings
        if not re.search(rf"{re.escape(option)}(?![\w-])", readme)
    )
    assert missing == []


def test_every_readme_table_flag_exists_in_the_parser():
    """The command-reference table lists the flags audit and validate
    share; a flag the parser dropped must leave it too."""
    rows = [
        line
        for line in (ROOT / "README.md").read_text().splitlines()
        if line.startswith("| `--")
    ]
    assert rows
    parsers = subcommand_parsers()
    unknown = sorted(
        f"{name} {flag}"
        for line in rows
        for flag in re.findall(r"--[a-z][\w-]*", line)
        for name in ("audit", "validate")
        if flag not in parsers[name]._option_string_actions
    )
    assert unknown == []


def oproj_dataclasses():
    """Every dataclass defined in one of the oproj modules."""
    import oproj

    for info in pkgutil.iter_modules(oproj.__path__):
        module = importlib.import_module(f"oproj.{info.name}")
        for obj in vars(module).values():
            if isinstance(obj, type) and dataclasses.is_dataclass(obj):
                if obj.__module__ == module.__name__:
                    yield obj


def test_no_dataclass_compares_an_ndarray_field():
    """A generated ``__eq__`` or ``__hash__`` over an ndarray field raises
    instead of answering. Such a field sets ``compare=False``, or its class
    compares by identity."""
    classes = list(oproj_dataclasses())
    assert classes
    offending = sorted(
        f"{cls.__module__}.{cls.__qualname__}.{f.name}"
        for cls in classes
        for f in dataclasses.fields(cls)
        if "ndarray" in str(f.type) and f.compare and cls.__eq__ is not object.__eq__
    )
    assert offending == []


def _equal_valued_pairs():
    from oproj.adapters import LinearModel
    from oproj.dataio import SyntheticSpec
    from oproj.linalg import ProjectionBasis
    from oproj.surrogate import LogisticModel

    fit = {"iterations": 1, "converged": True, "losses": (0.5,)}
    makers = {
        "LinearModel": lambda: LinearModel(np.array([1.0, 2.0]), 0.0),
        "LogisticModel": lambda: LogisticModel(np.array([1.0, 2.0]), 0.0, **fit),
        "ProjectionBasis": lambda: ProjectionBasis(np.eye(3)[:, :2]),
        "SyntheticSpec": lambda: SyntheticSpec(n=10, coefficients=(1, 2), correlation=np.eye(2)),
    }
    return [pytest.param(make, id=name) for name, make in makers.items()]


@pytest.mark.parametrize("make", _equal_valued_pairs())
def test_array_holding_dataclasses_compare_and_hash_by_identity(make):
    a, b = make(), make()
    assert a == a
    assert a != b
    assert len({a, b}) == 2
