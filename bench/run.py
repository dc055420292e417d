#!/usr/bin/env python3
"""oproj audit benchmark: whole audits per workload, checked and timed.

    python3 bench/run.py --workload NAME [--seed 7] [--seconds 30] [--trace 0|1]
                         [--smoke]

Run from the root of a checkout; the program is imported from ``src/``.
Inputs come from one SyntheticSpec seeded with ``--seed``. Audits repeat
until the next one would overrun ``--seconds``. Every audit's report is
checked, and one that fails counts against the error rate.

With ``--trace 0`` the last line of output holds the end-to-end metrics
named in BENCHMARK.json; with ``--trace 1`` audits alternate untraced and
traced, and it holds the per-layer metrics. Human-readable lines before it
give every metric, the environment and the error rate. ``--smoke`` runs
tiny inputs, for tests.
"""

from __future__ import annotations

import argparse
import json
import os
import shlex
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import harness
import layers

ROOT = harness.BENCH_DIR.parent
SETUP_SAMPLES = 11
UNRESOLVED = "unresolved"
TRACE_UNITS = {"trace.spans": "count", "trace.overhead_s": "s"}
# Longest a single audit (or the in-process worker, beyond its window) may
# take before it is killed and counted as failed.
PROCESS_TIMEOUT_S = 120.0


@dataclass
class Finished:
    status: int
    wall: float
    cpu: float
    rss_mb: float


@dataclass
class Audit:
    wall: float
    cpu: float
    rss_mb: float
    traced: bool
    problems: list[str] = field(default_factory=list)
    entries: list[dict] = field(default_factory=list)
    layers: dict | None = None


def _kill_group(pid: int) -> None:
    try:
        os.killpg(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def run_process(argv: list[str], env: dict, log: Path, timeout: float) -> Finished:
    """Run one process to completion: wall time from launch to exit, plus
    CPU time and peak RSS of it and the children it waited for."""
    with open(log, "wb") as out:
        start = time.perf_counter()
        proc = subprocess.Popen(
            argv, env=env, stdout=out, stderr=subprocess.STDOUT, start_new_session=True
        )
        killer = threading.Timer(timeout, _kill_group, (proc.pid,))
        killer.start()
        try:
            _pid, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            _kill_group(proc.pid)
            proc.wait()
            raise
        finally:
            killer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Finished(
        proc.returncode, wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024
    )


def _log_tail(log: Path) -> str:
    return log.read_text(encoding="utf-8", errors="replace")[-500:].strip()


class CliRoute:
    """A fresh ``oproj audit`` process per audit, over a CSV file."""

    def __init__(self, workload, names, data, target, work: Path, env: dict, reference):
        self.workload, self.k = workload, len(names)
        self.work, self.env, self.reference = work, env, reference
        self.csv = work / "data.csv"
        harness.write_csv(self.csv, names, data, target)
        self.count_file = work / "model_invocations"
        self.out_dir = work / "out"
        if workload.route == "subprocess":
            model = shlex.join(
                [sys.executable, str(harness.BENCH_DIR / "model.py"), str(self.count_file)]
            )
            route = ["--model", model, "--transforms", "all"]
        else:
            route = ["--surrogate", "ridge", "--transforms", "none"]
        self.args = [
            "audit",
            "--data", str(self.csv),
            *route,
            "--target", "column:target",
            "--format", "json,csv,svg",
            "--out", str(self.out_dir),
        ]  # fmt: skip

    def setup_argv(self) -> list[str]:
        return [sys.executable, "-c", "import oproj.cli"]

    def measure(self, seconds: float, trace: int) -> list[Audit]:
        audits: list[Audit] = []
        start = time.perf_counter()
        while harness.room_for_another(
            [a.wall for a in audits], time.perf_counter() - start, seconds, 1 + trace
        ):
            audits.append(self._audit(traced=bool(trace) and len(audits) % 2 == 1))
        return audits

    def _audit(self, traced: bool) -> Audit:
        shutil.rmtree(self.out_dir, ignore_errors=True)
        self.count_file.unlink(missing_ok=True)
        spans_file = self.work / "spans.json"
        spans_file.unlink(missing_ok=True)
        if traced:
            argv = [sys.executable, str(harness.BENCH_DIR / "layers.py"), str(spans_file)]
        else:
            argv = [sys.executable, "-m", "oproj.cli"]
        log = self.work / "audit.log"
        done = run_process(argv + self.args, self.env, log, PROCESS_TIMEOUT_S)
        audit = Audit(done.wall, done.cpu, done.rss_mb, traced)
        if done.status != 0:
            audit.problems.append(f"exit status {done.status}: {_log_tail(log)}")
            return audit
        try:
            doc = json.loads((self.out_dir / "report.json").read_text(encoding="utf-8"))
            csv = (self.out_dir / "report.csv").read_text(encoding="utf-8").splitlines()
            svg = (self.out_dir / "report.svg").read_text(encoding="utf-8")
        except (OSError, ValueError) as exc:
            audit.problems.append(f"unreadable report: {exc}")
            return audit
        audit.entries = doc["entries"]
        audit.problems += harness.check_entries(audit.entries, self.k, self.reference)
        if len(csv) != self.k + 1:
            audit.problems.append(f"report.csv has {len(csv)} lines, expected {self.k + 1}")
        if not svg.startswith("<svg"):
            audit.problems.append("report.svg is not an SVG document")
        if self.workload.route == "subprocess":
            calls = len(self.count_file.read_text(encoding="utf-8").splitlines())
            if calls != self.k + 1:
                audit.problems.append(f"model ran {calls} times, expected {self.k + 1}")
        if traced:
            recorded = json.loads(spans_file.read_text(encoding="utf-8"))
            audit.layers = layers.layer_metrics(recorded["trace"], set(recorded["missing"]))
        return audit


class InProcRoute:
    """One worker process that sets up once and calls ``rank_all`` repeatedly."""

    def __init__(self, workload, names, data, target, work: Path, env: dict, reference):
        self.k, self.work, self.env, self.reference = len(names), work, env, reference
        self.data = work / "features.npy"
        np.save(self.data, data)
        self.worker = [sys.executable, str(harness.BENCH_DIR / "inproc.py")]

    def setup_argv(self) -> list[str]:
        return [*self.worker, "--data", str(self.data), "--setup-only"]

    def measure(self, seconds: float, trace: int) -> list[Audit]:
        result_file = self.work / "worker.json"
        log = self.work / "worker.log"
        argv = [
            *self.worker,
            "--data", str(self.data),
            "--seconds", repr(seconds),
            "--trace", str(trace),
            "--out", str(result_file),
        ]  # fmt: skip
        done = run_process(argv, self.env, log, seconds + PROCESS_TIMEOUT_S)
        if done.status != 0:
            failed = Audit(done.wall, done.cpu, done.rss_mb, False)
            failed.problems.append(f"worker exit status {done.status}: {_log_tail(log)}")
            return [failed]
        result = json.loads(result_file.read_text(encoding="utf-8"))
        audits = []
        for run in result["audits"]:
            # The worker's peak covers every audit it ran.
            audit = Audit(run["wall"], run["cpu"], done.rss_mb, run["traced"])
            if run["error"]:
                audit.problems.append(run["error"])
            else:
                audit.entries = run["entries"]
                audit.problems += harness.check_entries(audit.entries, self.k, self.reference)
            if run["trace"] is not None:
                audit.layers = layers.layer_metrics(run["trace"], set(run["missing"]))
            audits.append(audit)
        return audits


def _measure_setup(route, env: dict, work: Path) -> list[float]:
    """Wall time of fresh set-up processes, after one unmeasured warm-up
    that fills the bytecode cache."""
    log = work / "setup.log"
    samples = []
    for i in range(SETUP_SAMPLES + 1):
        done = run_process(route.setup_argv(), env, log, PROCESS_TIMEOUT_S)
        if done.status != 0:
            raise RuntimeError(f"set-up failed with status {done.status}: {_log_tail(log)}")
        if i > 0:
            samples.append(done.wall)
    return samples


def _quartiles(values: list[float]) -> tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def _summary_line(name: str, value, unit: str, note: str = "") -> str:
    shown = f"{value:.6g}" if isinstance(value, float) else str(value)
    return f"  {name:<26} {shown:>12} {unit:<6} {note}".rstrip()


def _end_to_end(audits: list[Audit], setup: list[float]) -> dict[str, list[float]]:
    """Samples of each end-to-end metric, from untraced audits that passed."""
    ok = [a for a in audits if not a.problems and not a.traced]
    samples = {"setup_s": setup}
    if ok:
        samples["audit_s"] = [a.wall for a in ok]
        samples["audit_cpu_s"] = [a.cpu for a in ok]
        samples["peak_rss_mb"] = [a.rss_mb for a in ok]
    return samples


def _per_layer(audits: list[Audit], per_span: float) -> dict[str, float | str]:
    """Median per traced audit of every layer metric and of the span count.
    ``trace.overhead_s`` is the recorder's cost: spans per audit times the
    measured cost of one span."""
    traced = [a for a in audits if a.traced and not a.problems]
    if not traced:
        return dict.fromkeys([*layers.LAYER_METRICS, *TRACE_UNITS], layers.MISSING)
    values: dict[str, float | str] = {}
    for name in [*layers.LAYER_METRICS, "trace.spans"]:
        seen = [a.layers[name] for a in traced]
        marked = [v for v in seen if isinstance(v, str)]
        values[name] = marked[0] if marked else statistics.median(seen)
    values["trace.overhead_s"] = values["trace.spans"] * per_span
    return values


def _wall_difference(audits: list[Audit]) -> tuple[float | str, str]:
    """Median traced minus median untraced audit wall time, or UNRESOLVED
    when too few audits ran or host noise covers the difference."""
    traced = [a.wall for a in audits if a.traced and not a.problems]
    untraced = [a.wall for a in audits if not a.traced and not a.problems]
    note = f"{len(traced)} traced, {len(untraced)} untraced audits"
    if min(len(traced), len(untraced)) < 3:
        return UNRESOLVED, note + "; needs 3 of each"
    difference = statistics.median(traced) - statistics.median(untraced)
    q1, q3 = _quartiles(untraced)
    if abs(difference) <= q3 - q1:
        inside = f"{difference:.3g} s is inside the untraced q3-q1 {q3 - q1:.3g} s"
        return UNRESOLVED, f"{note}; {inside}"
    return difference, note


def _declared() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _run(args, workload, work: Path) -> int:
    n, k = (workload.smoke_n, workload.smoke_k) if args.smoke else (workload.n, workload.k)
    reference = harness.load_reference(workload.name, args.seed, args.smoke)
    names, data, target = harness.synthetic(n, k, args.seed)
    src = str(ROOT / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    route_cls = InProcRoute if workload.route == "inproc" else CliRoute
    route = route_cls(workload, names, data, target, work, env, reference)

    setup = _measure_setup(route, env, work)
    audits = route.measure(args.seconds, args.trace)
    failed = sum(1 for a in audits if a.problems)
    for i, a in enumerate(audits):
        for problem in a.problems:
            print(f"audit {i} failed: {problem}", file=sys.stderr)

    declared = _declared()
    print(
        f"oproj benchmark: workload {workload.name}, seed {args.seed}, "
        f"{n} x {k}, trace {args.trace}, window {args.seconds:g} s"
    )
    environment = harness.environment()
    print("environment: " + " ".join(f"{key}={value!r}" for key, value in environment.items()))
    print("end to end (untraced audits that passed their checks):")
    e2e = {}
    e2e_samples = _end_to_end(audits, setup)
    for m in declared["end_to_end"]:
        samples = e2e_samples.get(m["name"])
        if not samples:
            print(_summary_line(m["name"], layers.MISSING, m["unit"], "no passing audit"))
            continue
        e2e[m["name"]] = statistics.median(samples)
        q1, q3 = _quartiles(samples)
        note = f"median of {len(samples)} (q1 {q1:.6g}, q3 {q3:.6g})"
        print(_summary_line(m["name"], e2e[m["name"]], m["unit"], note))
    note = f"{failed} of {len(audits)} audits failed"
    print(_summary_line("error_rate", failed / len(audits), "", note))
    walls = " ".join(f"{a.wall:.3f}{'t' if a.traced else ''}" for a in audits)
    print(f"audit wall times in order (t: traced): {walls}")

    if args.trace:
        per_span = layers.span_cost()
        per_layer = _per_layer(audits, per_span)
        print("per layer (median per traced audit):")
        units = {name: spec[0] for name, spec in layers.LAYER_METRICS.items()} | TRACE_UNITS
        for name, value in per_layer.items():
            note = f"{per_span * 1e6:.3g} us per span" if name == "trace.overhead_s" else ""
            print(_summary_line(name, value, units[name], note))
        difference, note = _wall_difference(audits)
        print(_summary_line("trace.wall_diff_s", difference, "s", note))
        values, wanted = per_layer, declared["per_layer"]
    else:
        values, wanted = e2e, declared["end_to_end"]

    metrics = {
        m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
        for m in wanted
        if not isinstance(values.get(m["name"], layers.MISSING), str)
    }
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": len(audits),
                "failed": failed,
                "metrics": metrics,
            }
        )
    )
    return 0


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description="oproj audit benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(harness.WORKLOADS))
    parser.add_argument("--seed", type=int, default=harness.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=32.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "oproj" / "__init__.py").is_file():
        print(f"bench: no oproj sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    work_root = ROOT / ".bench_work"
    work_root.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=work_root))
    try:
        return _run(args, harness.WORKLOADS[args.workload], work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
