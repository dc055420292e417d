import csv
import json
import os
import re
import shutil
import signal
import subprocess
import sys
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest

import oproj.ranking as ranking
from conftest import fixture_command, needs_proc, process_gone
from oproj.cli import main, parse_replacement, parse_target, parse_transforms, resolve_seed
from oproj.transforms import TransformSet

LINEAR_MODEL = fixture_command("linear_model.py")
SRC = Path(__file__).resolve().parents[1] / "src"


def write_spec(tmp_path, text):
    spec = tmp_path / "spec.txt"
    spec.write_text(text)
    return spec


def synth(tmp_path, text=None, name="data.csv"):
    spec = write_spec(
        tmp_path,
        text or "n=300\ncoefficients=4,2,1,0\nnoise_sd=0.0\nseed=7\n",
    )
    out = tmp_path / name
    assert main(["synth", "--spec", str(spec), "--out", str(out)]) == 0
    return out


def run_cli(argv, *, cpu=None, **env):
    """Run ``oproj`` in a child interpreter with ``env`` added to its
    environment, pinned to CPU ``cpu`` when one is given."""
    env = dict(os.environ, **env)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    pin = "" if cpu is None else f"os.sched_setaffinity(0, {{{cpu}}}); "
    code = f"import os, sys; {pin}from oproj.cli import main; sys.exit(main(sys.argv[1:]))"
    return subprocess.run(
        [sys.executable, "-c", code, *argv], env=env, capture_output=True, text=True, timeout=300
    )


def big_column_audit(tmp_path, target_scale):
    """Exit code of a ridge-surrogate audit on a column near 1e155,
    whose normal equations overflow float64 until rescaled."""
    rng = np.random.default_rng(0)
    data = rng.standard_normal((80, 3))
    lines = ["a,big,target"] + [
        f"{a!r},{b * 1e154 + 1e155!r},{(a + 2 * t + 4) * target_scale!r}"
        for a, b, t in data.tolist()
    ]
    csv = tmp_path / "big.csv"
    csv.write_text("\n".join(lines) + "\n")
    return main(
        [
            "audit",
            "--data", str(csv),
            "--surrogate", "ridge",
            "--target", "column:target",
            "--out", str(tmp_path / "out"),
        ]
    )  # fmt: skip


def report_text(out):
    """``report.json`` in ``out``, with its timestamp blanked."""
    text = (out / "report.json").read_text()
    return re.sub(r'"generated_at": "[^"]*"', '"generated_at": ""', text)


def most_at_once(runs):
    """The largest number of (start, end) intervals that overlap at one
    moment; an interval ending when another starts does not overlap it."""
    events = sorted([(start, 1) for start, _ in runs] + [(end, -1) for _, end in runs])
    running = most = 0
    for _, step in events:
        running += step
        most = max(most, running)
    return most


class TestParsers:
    def test_transforms_all_none(self):
        assert parse_transforms("all") == TransformSet()
        assert parse_transforms("none") == TransformSet.none()

    def test_transforms_tokens(self):
        ts = parse_transforms("log,poly2,poly4")
        assert ts.enable_log and not ts.enable_exp
        assert ts.poly_degrees == (2, 4)

    def test_transforms_bad_token(self):
        with pytest.raises(ValueError, match="unknown transform"):
            parse_transforms("log,wiggle")

    def test_transforms_all_combined_rejected(self):
        with pytest.raises(ValueError, match="combined"):
            parse_transforms("all,log")

    def test_target(self):
        assert parse_target("captured") == ("captured", None)
        assert parse_target("column:limit") == ("column", "limit")
        with pytest.raises(ValueError):
            parse_target("column:")

    def test_replacement(self):
        assert parse_replacement("mean") == ("mean", 0.0)
        assert parse_replacement("zero") == ("zero", 0.0)
        assert parse_replacement("const:1.5") == ("constant", 1.5)
        with pytest.raises(ValueError):
            parse_replacement("median")

    @pytest.mark.parametrize("spec", ["const:nan", "const:inf", "const:-inf", "const:x"])
    def test_replacement_constant_must_be_finite(self, spec):
        with pytest.raises(ValueError, match="must be a finite number"):
            parse_replacement(spec)

    def test_seed_resolution(self, monkeypatch):
        monkeypatch.delenv("OPROJ_SEED", raising=False)
        assert resolve_seed(None) == 0
        assert resolve_seed(11) == 11
        monkeypatch.setenv("OPROJ_SEED", "42")
        assert resolve_seed(None) == 42
        assert resolve_seed(7) == 7
        with pytest.raises(ValueError, match="--seed must be a non-negative"):
            resolve_seed(-1)
        monkeypatch.setenv("OPROJ_SEED", "-3")
        with pytest.raises(ValueError, match="OPROJ_SEED must be a non-negative"):
            resolve_seed(None)


class TestSynth:
    def test_writes_csv_and_truth(self, tmp_path):
        out = synth(tmp_path)
        header = out.read_text().splitlines()[0]
        assert header == "x1,x2,x3,x4,target"
        truth = (tmp_path / "data.csv.truth").read_text()
        assert "importance_order=x1,x2,x3,x4" in truth

    def test_deterministic(self, tmp_path):
        a = synth(tmp_path, name="a.csv").read_bytes()
        b = synth(tmp_path, name="b.csv").read_bytes()
        assert a == b

    def test_non_pd_correlation_exit_2(self, tmp_path, capsys):
        spec = write_spec(
            tmp_path,
            "n=50\ncoefficients=1,1\ncorr=x1,x2,1.5\n",
        )
        code = main(["synth", "--spec", str(spec), "--out", str(tmp_path / "x.csv")])
        assert code == 2
        assert "Cholesky" in capsys.readouterr().err

    def test_missing_spec_file_exit_2(self, tmp_path, capsys):
        code = main(
            ["synth", "--spec", str(tmp_path / "nope.txt"), "--out", str(tmp_path / "x.csv")]
        )
        assert code == 2


@pytest.mark.parametrize(
    "command, flag, path, code",
    [
        ("audit", "--data", "directory", 1),
        ("audit", "--schema", "directory", 1),
        ("audit", "--out", "file", 1),
        ("synth", "--out", "directory", 1),
        ("synth", "--spec", "directory", 2),
    ],
)
def test_unusable_path_ends_as_an_oproj_message(
    tmp_path, capsys, command, flag, path, code
):
    data = synth(tmp_path)
    args = {
        "audit": {
            "--data": data,
            "--surrogate": "ridge",
            "--target": "column:target",
            "--out": tmp_path / "out",
        },
        "synth": {"--spec": write_spec(tmp_path, "n=10\ncoefficients=1\n"), "--out": data},
    }[command]
    args[flag] = tmp_path if path == "directory" else data
    capsys.readouterr()
    assert main([command, *(str(a) for item in args.items() for a in item)]) == code
    err = capsys.readouterr().err
    assert err.startswith("oproj:")
    assert "Traceback" not in err


class TestAudit:
    def test_end_to_end_json(self, tmp_path):
        data = synth(tmp_path)
        out = tmp_path / "out"
        code = main(
            [
                "audit",
                "--data", str(data),
                "--model", LINEAR_MODEL,
                "--target", "column:target",
                "--out", str(out),
                "--seed", "7",
            ]
        )
        assert code == 0
        doc = json.loads((out / "report.json").read_text())
        assert doc["entries"][0]["name"] == "x1"
        assert doc["entries"][0]["normalized"] == 100.0
        assert [e["name"] for e in doc["entries"]] == ["x1", "x2", "x3", "x4"]
        assert doc["config"]["seed"] == 7
        assert doc["config"]["target"] == "column:target"

    @needs_proc
    def test_no_model_child_outlives_the_audit(self, tmp_path):
        # Each of the k+1 queries' models leaves a sleeping child behind.
        data = synth(tmp_path, "n=200\ncoefficients=3,2,1\nseed=7\n")
        pids = tmp_path / "pids"
        pids.mkdir()
        model = f"{fixture_command('misbehaving_model.py')} orphan {pids} ok"
        out = tmp_path / "out"
        code = main(["audit", "--data", str(data), "--model", model, "--target", "column:target",
                     "--out", str(out)])  # fmt: skip
        assert code == 0
        sleepers = [int(p.stem) for p in pids.glob("*.pid")]
        assert len(sleepers) == 4
        try:
            assert all(process_gone(pid) for pid in sleepers)
        finally:
            for pid in sleepers:
                if not process_gone(pid, within=0.0):
                    os.kill(pid, signal.SIGKILL)

    @pytest.mark.skipif(
        not hasattr(os, "sched_setaffinity"), reason="pins the audit to one CPU"
    )
    def test_one_model_process_at_a_time(self, tmp_path):
        """An audit that may run on one CPU runs one model at a time."""
        data = synth(tmp_path)
        lock, count = tmp_path / "model.lock", tmp_path / "count.txt"
        model = f"{fixture_command('exclusive_model.py')} {lock} {count}"
        out = tmp_path / "out"
        argv = ["audit", "--data", str(data), "--model", model, "--target", "column:target",
                "--out", str(out)]  # fmt: skip
        proc = run_cli(argv, cpu=min(os.sched_getaffinity(0)))
        assert proc.returncode == 0, proc.stderr
        doc = json.loads((out / "report.json").read_text())
        assert [e["error"] for e in doc["entries"]] == [None] * 4
        assert len(count.read_text().splitlines()) == 5
        assert not lock.exists()

    def test_two_model_processes_at_a_time_at_width_two(self, tmp_path, monkeypatch):
        monkeypatch.setattr(ranking, "_model_width", lambda: 2)
        data = synth(tmp_path)
        log = tmp_path / "runs.txt"
        model = f"{fixture_command('interval_model.py')} {log}"
        out = tmp_path / "out"
        code = main(["audit", "--data", str(data), "--model", model, "--target", "column:target",
                     "--out", str(out)])  # fmt: skip
        assert code == 0
        runs = [tuple(map(float, line.split())) for line in log.read_text().splitlines()]
        assert len(runs) == 5
        assert most_at_once(runs) == 2

    @pytest.mark.skipif(shutil.which("flock") is None, reason="needs the flock command")
    def test_flock_runs_a_model_alone_at_width_two(self, tmp_path, monkeypatch):
        # The README's recipe for a model that must run alone.
        monkeypatch.setattr(ranking, "_model_width", lambda: 2)
        data = synth(tmp_path)
        lock, count = tmp_path / "model.lock", tmp_path / "count.txt"
        model = (
            f"flock {tmp_path / 'flock.lock'} "
            f"{fixture_command('exclusive_model.py')} {lock} {count}"
        )
        out = tmp_path / "out"
        code = main(["audit", "--data", str(data), "--model", model, "--target", "column:target",
                     "--out", str(out)])  # fmt: skip
        assert code == 0
        doc = json.loads((out / "report.json").read_text())
        assert [e["error"] for e in doc["entries"]] == [None] * 4
        assert len(count.read_text().splitlines()) == 5
        assert not lock.exists()

    def test_report_identical_at_width_one_and_two(self, tmp_path, monkeypatch):
        data = synth(tmp_path)
        reports = []
        for width in (1, 2):
            monkeypatch.setattr(ranking, "_model_width", lambda: width)
            out = tmp_path / f"width{width}"
            argv = ["audit", "--data", str(data), "--model", LINEAR_MODEL, "--out", str(out)]
            assert main(argv) == 0
            reports.append(report_text(out))
        assert reports[0] == reports[1]

    def test_report_identical_across_blas_thread_counts(self, tmp_path):
        """A 3000x12 command-line audit reports the same bits under 1 and 2
        OpenBLAS threads. This size is below where OpenBLAS (0.3.31) splits
        a dot product (over 10000 elements) across threads; the larger
        audit in test_ranking's TestBlasThreads is above it."""
        coefficients = ",".join(str(c) for c in range(12, 0, -1))
        data = synth(tmp_path, f"n=3000\ncoefficients={coefficients}\nnoise_sd=0.1\nseed=7\n")
        reports = []
        for threads in ("1", "2"):
            out = tmp_path / f"threads{threads}"
            argv = ["audit", "--data", str(data), "--model", LINEAR_MODEL, "--out", str(out)]
            proc = run_cli(argv, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
            assert proc.returncode == 0, proc.stderr
            reports.append(report_text(out))
        assert reports[0] == reports[1]

    def test_all_formats_written(self, tmp_path):
        data = synth(tmp_path)
        out = tmp_path / "out"
        code = main(
            [
                "audit",
                "--data", str(data),
                "--model", LINEAR_MODEL,
                "--target", "column:target",
                "--out", str(out),
                "--format", "json,csv,svg",
            ]
        )
        assert code == 0
        assert (out / "report.json").exists()
        assert (out / "report.csv").exists()
        svg = (out / "report.svg").read_text()
        root = ET.fromstring(svg)
        bars = [el for el in root.iter() if el.tag.endswith("rect")]
        assert len(bars) == 4

    def test_missing_model_binary_exit_1(self, tmp_path, capsys):
        data = synth(tmp_path)
        code = main(
            [
                "audit",
                "--data", str(data),
                "--model", "/no/such/model-cmd",
                "--target", "column:target",
                "--out", str(tmp_path / "out"),
            ]
        )
        assert code == 1
        assert "/no/such/model-cmd" in capsys.readouterr().err

    def test_both_model_and_surrogate_exit_2(self, tmp_path):
        data = synth(tmp_path)
        with pytest.raises(SystemExit) as info:
            main(
                [
                    "audit",
                    "--data", str(data),
                    "--model", LINEAR_MODEL,
                    "--surrogate", "ridge",
                    "--out", str(tmp_path / "out"),
                ]
            )
        assert info.value.code == 2

    def test_surrogate_requires_column_target_exit_2(self, tmp_path):
        data = synth(tmp_path)
        with pytest.raises(SystemExit) as info:
            main(
                [
                    "audit",
                    "--data", str(data),
                    "--surrogate", "ridge",
                    "--out", str(tmp_path / "out"),
                ]
            )
        assert info.value.code == 2

    def test_unknown_format_exit_2(self, tmp_path):
        data = synth(tmp_path)
        with pytest.raises(SystemExit) as info:
            main(
                [
                    "audit",
                    "--data", str(data),
                    "--model", LINEAR_MODEL,
                    "--target", "column:target",
                    "--out", str(tmp_path / "out"),
                    "--format", "pdf",
                ]
            )
        assert info.value.code == 2

    def test_bad_threshold_exit_2(self, tmp_path):
        # Every kind refuses a threshold outside (0, 1): report.json would
        # echo nan or inf, which strict JSON cannot hold.
        data = synth(tmp_path)
        for metric, threshold in [("accuracy", "1.5"), ("mse", "nan"), ("mse", "inf")]:
            with pytest.raises(SystemExit) as info:
                main(
                    [
                        "audit",
                        "--data", str(data),
                        "--model", LINEAR_MODEL,
                        "--metric", metric,
                        "--threshold", threshold,
                        "--out", str(tmp_path / "out"),
                    ]
                )  # fmt: skip
            assert info.value.code == 2
            assert not (tmp_path / "out" / "report.json").exists()

    def test_transforms_none_flag(self, tmp_path):
        data = synth(tmp_path)
        out = tmp_path / "out"
        code = main(
            [
                "audit",
                "--data", str(data),
                "--model", LINEAR_MODEL,
                "--target", "column:target",
                "--transforms", "none",
                "--out", str(out),
            ]
        )
        assert code == 0
        doc = json.loads((out / "report.json").read_text())
        assert doc["config"]["transforms"] == {
            "log": False,
            "poly_degrees": [],
            "exp": False,
            "exp_clip": 20.0,
        }
        assert doc["entries"][0]["name"] == "x1"

    def test_overflowing_companion_without_standardize_exit_0(self, tmp_path):
        csv = tmp_path / "big.csv"
        rng = np.random.default_rng(0)
        rows = [f"{a!r},{b!r},{c * 1e120!r}" for a, b, c in rng.standard_normal((60, 3)).tolist()]
        csv.write_text("x1,x2,x3\n" + "\n".join(rows) + "\n")
        out = tmp_path / "out"
        code = main(
            [
                "audit",
                "--data", str(csv),
                "--model", LINEAR_MODEL,
                "--no-standardize",
                "--out", str(out),
            ]
        )  # fmt: skip
        assert code == 0
        entries = {e["name"]: e for e in json.loads((out / "report.json").read_text())["entries"]}
        assert "'pow3'" in entries["x3"]["error"]
        assert entries["x1"]["error"] is None and entries["x2"]["error"] is None

    def test_missing_target_column_exit_1(self, tmp_path, capsys):
        data = synth(tmp_path)
        code = main(
            [
                "audit",
                "--data", str(data),
                "--model", LINEAR_MODEL,
                "--target", "column:nope",
                "--out", str(tmp_path / "out"),
            ]
        )
        assert code == 1
        assert "nope" in capsys.readouterr().err

    def test_schema_column_missing_from_the_file_exit_1(self, tmp_path, capsys):
        data = synth(tmp_path)
        schema = tmp_path / "schema.txt"
        schema.write_text("x9=ignore\n")
        out = tmp_path / "out"
        code = main(
            [
                "audit",
                "--data", str(data),
                "--schema", str(schema),
                "--model", LINEAR_MODEL,
                "--target", "column:target",
                "--out", str(out),
            ]
        )  # fmt: skip
        assert code == 1
        assert "['x9']" in capsys.readouterr().err
        assert not (out / "report.json").exists()

    def test_surrogate_mode_reports_fidelity(self, tmp_path):
        data = synth(tmp_path, "n=400\ncoefficients=3,1\nnoise_sd=0.05\nseed=3\n")
        out = tmp_path / "out"
        code = main(
            [
                "audit",
                "--data", str(data),
                "--surrogate", "ridge",
                "--target", "column:target",
                "--out", str(out),
                "--seed", "3",
            ]
        )
        assert code == 0
        doc = json.loads((out / "report.json").read_text())
        fid = doc["surrogate_fidelity"]
        assert fid["kind"] == "r2"
        assert fid["value"] > 0.99
        assert doc["config"]["model"] == "surrogate:ridge"
        assert doc["entries"][0]["name"] == "x1"

    def test_ridge_surrogate_audits_a_column_beyond_1e154(self, tmp_path):
        assert big_column_audit(tmp_path, 1.0) == 0
        assert (tmp_path / "out" / "report.json").exists()

    def test_overflowing_ridge_surrogate_exit_1_without_report(self, tmp_path, capsys):
        # A target near 1e308 overflows the rescaled normal equations too.
        assert big_column_audit(tmp_path, 1e307) == 1
        assert "ridge normal equations overflow float64" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_ridge_surrogate_fidelity_beyond_float64_squares(self, tmp_path):
        # One holdout row's recorded target is 1e200, so the fidelity's sums
        # of squares overflow; r² itself is about 1 - 40/39 on 40 holdout
        # rows.
        rng = np.random.default_rng(5)
        data = rng.standard_normal((200, 2))
        target = data @ np.array([1.0, 2.0])
        target[np.random.default_rng(0).permutation(200)[0]] = 1e200
        lines = ["a,b,t"] + [
            f"{a!r},{b!r},{t!r}" for (a, b), t in zip(data.tolist(), target.tolist())
        ]
        csv = tmp_path / "big_target.csv"
        csv.write_text("\n".join(lines) + "\n")
        out = tmp_path / "out"
        code = main(
            [
                "audit",
                "--data", str(csv),
                "--surrogate", "ridge",
                "--target", "column:t",
                "--out", str(out),
            ]
        )  # fmt: skip
        assert code == 0
        fidelity = json.loads((out / "report.json").read_text())["surrogate_fidelity"]
        assert fidelity["value"] == pytest.approx(1.0 - 40.0 / 39.0, rel=1e-12)

    def test_categorical_schema_groups(self, tmp_path):
        csv = tmp_path / "cat.csv"
        rng = np.random.default_rng(0)
        lines = ["num,grp,y"]
        for i in range(80):
            g = "F" if i % 2 == 0 else "M"
            x = rng.standard_normal()
            lines.append(f"{x},{g},{2 * x + (0.5 if g == 'F' else -0.5)}")
        csv.write_text("\n".join(lines) + "\n")
        schema = tmp_path / "schema.txt"
        schema.write_text("grp=feature:categorical\ny=target\n")
        out = tmp_path / "out"
        code = main(
            [
                "audit",
                "--data", str(csv),
                "--schema", str(schema),
                "--surrogate", "ridge",
                "--target", "column:y",
                "--out", str(out),
            ]
        )
        assert code == 0
        doc = json.loads((out / "report.json").read_text())
        names = [e["name"] for e in doc["entries"]]
        assert set(names) == {"num", "grp=F", "grp=M"}
        groups = doc["categorical_groups"]
        assert len(groups) == 1
        assert groups[0]["source"] == "grp"
        assert set(groups[0]["levels"]) == {"grp=F", "grp=M"}
        level_raws = [e["raw_delta"] for e in doc["entries"] if e["name"].startswith("grp=")]
        assert groups[0]["raw_delta_max"] == max(level_raws)

    @staticmethod
    def _write_unquotable(tmp_path, categorical):
        """A CSV whose header names ``a,b``, or whose categorical column
        ``g`` has the level ``x,y``; both need quoting in a header."""
        rng = np.random.default_rng(0)
        lines = ['"a,b",g,c,target']
        for i, (a, c) in enumerate(rng.standard_normal((60, 2)).tolist()):
            g = ('"x,y"' if i % 2 else "z") if categorical else repr(float(i % 3))
            lines.append(f"{a!r},{g},{c!r},{2 * a + c + (i % 2)!r}")
        csv = tmp_path / "names.csv"
        csv.write_text("\n".join(lines) + "\n")
        schema = tmp_path / "schema.txt"
        schema.write_text("g=feature:categorical\n" if categorical else "")
        return csv, schema

    @pytest.mark.parametrize("categorical", [False, True])
    def test_name_the_header_cannot_carry_exit_1_before_model_runs(
        self, tmp_path, monkeypatch, capsys, categorical
    ):
        csv, schema = self._write_unquotable(tmp_path, categorical)
        count = tmp_path / "count.txt"
        monkeypatch.setenv("OPROJ_FIXTURE_COUNT", str(count))
        out = tmp_path / "out"
        code = main(
            [
                "audit",
                "--data", str(csv),
                "--schema", str(schema),
                "--model", LINEAR_MODEL,
                "--target", "column:target",
                "--out", str(out),
            ]
        )  # fmt: skip
        assert code == 1
        err = capsys.readouterr().err
        assert "'a,b'" in err and "unquoted CSV header" in err
        assert ("'g=x,y'" in err) is categorical
        assert not count.exists()
        assert not out.exists()

    @pytest.mark.parametrize("categorical", [False, True])
    def test_name_the_header_cannot_carry_audited_by_surrogate(self, tmp_path, categorical):
        data, schema = self._write_unquotable(tmp_path, categorical)
        out = tmp_path / "out"
        code = main(
            [
                "audit",
                "--data", str(data),
                "--schema", str(schema),
                "--surrogate", "ridge",
                "--target", "column:target",
                "--format", "json,csv",
                "--out", str(out),
            ]
        )  # fmt: skip
        assert code == 0
        doc = json.loads((out / "report.json").read_text())
        names = {e["name"] for e in doc["entries"]}
        assert names == ({"a,b", "g=x,y", "g=z", "c"} if categorical else {"a,b", "g", "c"})
        assert all(e["error"] is None for e in doc["entries"])
        # report.csv quotes the names, so they read back whole.
        with (out / "report.csv").open(newline="") as fh:
            rows = list(csv.reader(fh))
        assert all(len(r) == 5 for r in rows)
        assert {r[0] for r in rows[1:]} == names

    def test_nonfinite_replacement_constant_exit_2(self, tmp_path, capsys):
        data = synth(tmp_path)
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as info:
            main(
                [
                    "audit",
                    "--data", str(data),
                    "--model", LINEAR_MODEL,
                    "--replacement", "const:nan",
                    "--out", str(out),
                ]
            )  # fmt: skip
        assert info.value.code == 2
        assert "const:nan" in capsys.readouterr().err
        assert not (out / "report.json").exists()

    @pytest.mark.parametrize(
        "flag, value",
        [("--timeout", "0"), ("--timeout", "nan"), ("--timeout", "inf"),
         ("--timeout", "1e300"),
         ("--ridge-lambda", "-1"), ("--ridge-lambda", "nan")],
    )  # fmt: skip
    def test_numeric_flag_that_cannot_work_exit_2(self, tmp_path, flag, value):
        data = synth(tmp_path)
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as info:
            main(
                [
                    "audit",
                    "--data", str(data),
                    "--model", LINEAR_MODEL,
                    flag, value,
                    "--out", str(out),
                ]
            )  # fmt: skip
        assert info.value.code == 2
        assert not (out / "report.json").exists()

    @pytest.mark.parametrize(
        "flag, value", [("--format", "pdf"), ("--seed", "-1")]
    )  # fmt: skip
    def test_usage_error_exit_2_before_data_is_read(self, tmp_path, capsys, flag, value):
        # The data file does not exist: a check that ran after the load
        # would exit 1 with the file error instead.
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as info:
            main(
                [
                    "audit",
                    "--data", str(tmp_path / "missing.csv"),
                    "--model", LINEAR_MODEL,
                    flag, value,
                    "--out", str(out),
                ]
            )  # fmt: skip
        assert info.value.code == 2
        assert "missing.csv" not in capsys.readouterr().err
        assert not (out / "report.json").exists()

    def test_logistic_surrogate_at_iteration_cap_warns(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr("oproj.surrogate.MAX_ITER", 1)
        rng = np.random.default_rng(2)
        rows = rng.standard_normal((200, 2))
        lines = ["a,b,target"] + [
            f"{a!r},{b!r},{float(a + 0.5 * b > 0)!r}" for a, b in rows.tolist()
        ]
        csv_path = tmp_path / "binary.csv"
        csv_path.write_text("\n".join(lines) + "\n")
        flags = ["--data", str(csv_path), "--surrogate", "logistic",
                 "--target", "column:target"]  # fmt: skip
        out = tmp_path / "out"
        assert main(["audit", *flags, "--out", str(out)]) == 0
        warnings = json.loads((out / "report.json").read_text())["warnings"]
        assert len(warnings) == 1
        assert "did not converge in 1 iterations" in warnings[0]
        capsys.readouterr()
        assert main(["validate", *flags]) == 0
        assert f"warning: {warnings[0]}" in capsys.readouterr().out.splitlines()

    def test_schema_target_conflicts_with_captured_exit_2(self, tmp_path):
        data = synth(tmp_path)
        schema = tmp_path / "schema.txt"
        schema.write_text("target=target\n")
        with pytest.raises(SystemExit) as info:
            main(
                [
                    "audit",
                    "--data", str(data),
                    "--schema", str(schema),
                    "--model", LINEAR_MODEL,
                    "--out", str(tmp_path / "out"),
                ]
            )
        assert info.value.code == 2

    def test_env_seed_fallback(self, tmp_path, monkeypatch):
        data = synth(tmp_path)
        out = tmp_path / "out"
        monkeypatch.setenv("OPROJ_SEED", "99")
        code = main(
            [
                "audit",
                "--data", str(data),
                "--model", LINEAR_MODEL,
                "--target", "column:target",
                "--out", str(out),
            ]
        )
        assert code == 0
        doc = json.loads((out / "report.json").read_text())
        assert doc["config"]["seed"] == 99


class TestValidate:
    def test_noiseless_fixture_spearman_one(self, tmp_path, capsys):
        data = synth(tmp_path)
        code = main(
            [
                "validate",
                "--data", str(data),
                "--model", LINEAR_MODEL,
                "--target", "column:target",
                "--seed", "7",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "spearman=1" in out

    def test_captured_target_makes_k_plus_1_queries(self, tmp_path, monkeypatch, capsys):
        data = synth(tmp_path)
        schema = tmp_path / "schema.txt"
        schema.write_text("target=ignore\n")
        count = tmp_path / "count.txt"
        monkeypatch.setenv("OPROJ_FIXTURE_COUNT", str(count))
        code = main(
            [
                "validate",
                "--data", str(data),
                "--schema", str(schema),
                "--model", LINEAR_MODEL,
                "--target", "captured",
            ]
        )  # fmt: skip
        assert code == 0
        assert len(count.read_text().splitlines()) == 5
        assert "spearman=" in capsys.readouterr().out

    def test_pure_noise_target_reported_without_judgment(self, tmp_path, capsys):
        data = synth(tmp_path, "n=200\ncoefficients=0,0,0\nnoise_sd=1.0\nseed=2\n")
        code = main(
            [
                "validate",
                "--data", str(data),
                "--model", fixture_command("sum_model.py"),
                "--target", "column:target",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "spearman=" in out

    def test_one_scored_feature_has_no_rank_correlation(self, tmp_path, capsys):
        data = synth(tmp_path, "n=200\ncoefficients=2\nnoise_sd=0.0\nseed=3\n")
        capsys.readouterr()
        code = main(
            [
                "validate",
                "--data", str(data),
                "--model", fixture_command("sum_model.py"),
                "--target", "column:target",
            ]
        )  # fmt: skip
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[1].split()[0] == "x1"
        assert lines[-1] == "spearman=n/a (fewer than two scored features)"

    def test_correlated_design_divergence_documented(self, tmp_path, capsys):
        # Strong collinearity: the projection audit charges x2 for variance
        # it shares with x1, the refit oracle does not. The command reports
        # the disagreement instead of failing.
        data = synth(
            tmp_path,
            "n=1000\ncoefficients=1,0\nnoise_sd=0.05\nseed=6\ncorr=x1,x2,0.9\n",
        )
        code = main(
            [
                "validate",
                "--data", str(data),
                "--surrogate", "ridge",
                "--target", "column:target",
                "--seed", "6",
            ]
        )
        assert code == 0
        assert "spearman=" in capsys.readouterr().out
