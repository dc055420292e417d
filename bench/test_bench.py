"""Tests of the benchmark itself, on tiny inputs:

    python3 -m pytest bench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

import harness  # noqa: E402
import layers  # noqa: E402
from spans import Recorder, summarize  # noqa: E402

DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "bench" / "run.py"), *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=180,
    )


def _smoke(workload: str, trace: int) -> tuple[dict, dict[str, str]]:
    proc = _bench(
        "--workload", workload, "--seed", "3", "--seconds", "1",
        "--trace", str(trace), "--smoke",
    )  # fmt: skip
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    table = {}
    for line in lines[:-1]:
        parts = line.split()
        if len(parts) >= 2 and line.startswith("  "):
            table[parts[0]] = parts[1]
    return json.loads(lines[-1]), table


@pytest.mark.parametrize("workload", sorted(harness.WORKLOADS))
def test_smoke_run_reports_every_end_to_end_metric(workload):
    result, table = _smoke(workload, trace=0)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in DECLARED["end_to_end"]}
    assert {n: m["unit"] for n, m in result["metrics"].items()} == declared
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert table["error_rate"] == "0"


@pytest.mark.parametrize("workload", sorted(harness.WORKLOADS))
def test_traced_smoke_run_reports_every_layer(workload):
    result, table = _smoke(workload, trace=1)
    assert result["correct"]
    declared = {m["name"]: m["unit"] for m in DECLARED["per_layer"]}
    assert {n: m["unit"] for n, m in result["metrics"].items()} == declared
    k = harness.WORKLOADS[workload].smoke_k
    assert result["metrics"]["adapters.queries"]["value"] == k + 1
    assert set(layers.LAYER_METRICS) < set(table)
    wire = ("adapters.encode_s", "adapters.bytes_sent", "adapters.model_cpu_s")
    if workload == "cli_subprocess":
        assert all(table[name] != layers.ABSENT for name in wire)
    else:
        assert all(table[name] == layers.ABSENT for name in wire)
    if workload == "inproc_rank_all":
        assert table["dataio.load_csv_s"] == layers.ABSENT
    assert result["metrics"]["trace.overhead_s"]["value"] > 0
    assert int(table["trace.spans"]) > 0
    assert "trace.wall_diff_s" in table


def test_layer_counts_repeat_exactly():
    counts = (
        "adapters.queries", "adapters.bytes_sent", "adapters.bytes_received",
        "transforms.candidates", "dataio.cells_parsed", "linalg.project_gflop",
    )  # fmt: skip
    first = _smoke("cli_subprocess", trace=1)[1]
    second = _smoke("cli_subprocess", trace=1)[1]
    assert {c: first[c] for c in counts} == {c: second[c] for c in counts}


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench("--workload", "cli_subprocess", "--seed", "1", "--seconds", "1", cwd=tmp_path)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


def test_missing_name_marks_its_layer_missing(monkeypatch):
    import oproj.adapters

    original = oproj.adapters.format_matrix_csv
    monkeypatch.delattr(oproj.adapters, "parse_prediction_lines")
    undo, missing = layers.install(Recorder())
    layers.uninstall(undo)
    assert missing == {"adapters.parse"}
    assert oproj.adapters.format_matrix_csv is original
    metrics = layers.layer_metrics({"spans": [], "counts": {}}, missing)
    assert metrics["adapters.parse_s"] == layers.MISSING
    assert metrics["adapters.encode_s"] == layers.ABSENT


def test_wall_difference_needs_three_audits_a_side_and_a_clear_gap():
    import run

    def audits(untraced, traced):
        return [run.Audit(w, w, 1.0, False) for w in untraced] + [
            run.Audit(w, w, 1.0, True) for w in traced
        ]

    assert run._wall_difference(audits([1.0, 1.1], [2.0, 2.0]))[0] == run.UNRESOLVED
    assert run._wall_difference(audits([1.0, 1.5, 2.0], [1.6] * 3))[0] == run.UNRESOLVED
    assert run._wall_difference(audits([1.0, 1.01, 1.02], [2.0] * 3))[0] == pytest.approx(0.99)


def test_span_cost_is_positive():
    assert 0 < layers.span_cost(calls=2000, repeats=3) < 1e-3


def test_self_time_excludes_direct_children():
    dump = {
        "spans": [
            {"id": 0, "parent": None, "name": "outer", "start": 0.0, "end": 10.0},
            {"id": 1, "parent": 0, "name": "inner", "start": 1.0, "end": 4.0},
            {"id": 2, "parent": 1, "name": "leaf", "start": 2.0, "end": 3.0},
            {"id": 3, "parent": 0, "name": "inner", "start": 5.0, "end": 7.0},
        ],
        "counts": {},
    }
    total, self_time = summarize(dump)
    assert total == {"outer": 10.0, "inner": 5.0, "leaf": 1.0}
    assert self_time == {"outer": 5.0, "inner": 4.0, "leaf": 1.0}


def test_model_weights_columns_by_header_name(tmp_path):
    count = tmp_path / "count"
    payload = "x3,x1,x2\n1.0,10.0,100.0\n0.5,0.0,0.0\n"
    proc = subprocess.run(
        [sys.executable, str(BENCH / "model.py"), str(count)],
        input=payload,
        capture_output=True,
        text=True,
        check=True,
    )
    assert [float(x) for x in proc.stdout.split()] == [1.0 + 30.0 + 200.0, 0.5]
    assert count.read_text(encoding="utf-8").splitlines() == ["invocation"]


def test_check_entries_flags_reference_and_contract_breaks():
    entries = [
        {"name": "x1", "raw_delta": 2.0, "normalized": 100.0, "error": None},
        {"name": "x2", "raw_delta": 1.0, "normalized": 50.0, "error": None},
    ]
    assert harness.check_entries(entries, 2, [["x1", 2.0], ["x2", 1.0]]) == []
    assert harness.check_entries(entries, 2, [["x2", 2.0], ["x1", 1.0]])
    assert harness.check_entries(entries, 2, [["x1", 2.0], ["x2", 1.1]])
    assert harness.check_entries(entries, 3, None)
    entries[0]["normalized"] = 99.99
    assert harness.check_entries(entries, 2, None)
