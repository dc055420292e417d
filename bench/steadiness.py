#!/usr/bin/env python3
"""Steadiness check: repeat the benchmark with different seeds, report the
spread of every end-to-end metric, and compare repeated sets of runs.

    python3 bench/steadiness.py [--workload NAME ...] [--runs 10] [--sets 2]
                                [--first-seed 1] [--seconds S]

A set is one ``bench/run.py --trace 0`` run per seed on every workload; set
i uses seeds first-seed + i*runs onwards, and sets run one after another.
For each set and workload it prints, per metric, the median and quartiles
of the per-run values and the spread: the distance between the quartiles as
a share of the median. A spread over the metric's bound in BENCHMARK.json
is flagged. It then compares each later set's median with the first set's,
and flags a change larger than the bound. The exit code is 1 when a run
failed, was not correct, or a flag was raised.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _run_set(workload: str, seeds: range, seconds: float, metrics) -> tuple[dict, str, bool]:
    """Per-metric values of one run per seed, the environment line, and
    whether any run failed."""
    values: dict[str, list[float]] = {m["name"]: [] for m in metrics}
    environment, bad = "", False
    for seed in seeds:
        proc = subprocess.run(
            [
                sys.executable, str(ROOT / "bench" / "run.py"),
                "--workload", workload,
                "--seed", str(seed),
                "--seconds", repr(seconds),
                "--trace", "0",
            ],  # fmt: skip
            cwd=ROOT,
            capture_output=True,
            text=True,
        )
        lines = proc.stdout.splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
            bad = True
            continue
        environment = next((x for x in lines if x.startswith("environment:")), environment)
        result = json.loads(lines[-1])
        if not result["correct"]:
            failed = f"{result['failed']} of {result['attempted']} audits failed"
            print(f"{workload} seed {seed}: {failed}")
            bad = True
        shown = " ".join(f"{name}={m['value']:.4g}" for name, m in result["metrics"].items())
        print(f"{workload} seed {seed}: {shown}", flush=True)
        for name, metric in result["metrics"].items():
            values[name].append(metric["value"])
    return values, environment, bad


def _spreads(values: dict, metrics) -> tuple[dict[str, float], bool]:
    """Print median, quartiles and spread per metric; return the medians
    and whether a spread exceeded its bound."""
    medians, bad = {}, False
    print(f"  {'metric':<14} {'median':>10} {'q1':>10} {'q3':>10} {'spread':>8} {'bound':>6}")
    for metric in metrics:
        runs = values[metric["name"]]
        if len(runs) < 2:
            print(f"  {metric['name']:<14} too few runs")
            bad = True
            continue
        q1, median, q3 = statistics.quantiles(runs, n=4)
        medians[metric["name"]] = median
        spread = (q3 - q1) / median
        flag = ""
        if spread > metric["bound"]:
            flag, bad = "  OVER BOUND", True
        elif spread > metric["bound"] / 3:
            flag = "  over a third of the bound"
        print(
            f"  {metric['name']:<14} {median:>10.4g} {q1:>10.4g} {q3:>10.4g} "
            f"{spread:>8.3f} {metric['bound']:>6}{flag}"
        )
    return medians, bad


def main(argv: list[str]) -> int:
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    metrics = declared["end_to_end"]
    parser = argparse.ArgumentParser(description="benchmark steadiness check")
    names = [w["name"] for w in declared["workloads"]]
    parser.add_argument("--workload", action="append", choices=names)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--sets", type=int, default=2)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=declared["run_seconds"])
    args = parser.parse_args(argv)
    workloads = args.workload or names

    bad = False
    medians: dict[str, list[dict[str, float]]] = {w: [] for w in workloads}
    for i in range(args.sets):
        first = args.first_seed + i * args.runs
        seeds = range(first, first + args.runs)
        for workload in workloads:
            values, environment, failed = _run_set(workload, seeds, args.seconds, metrics)
            print(f"{workload}: set {i + 1}, seeds {first}-{first + args.runs - 1}, {environment}")
            set_medians, over = _spreads(values, metrics)
            medians[workload].append(set_medians)
            bad = bad or failed or over

    if args.sets < 2:
        return 1 if bad else 0
    print("medians of each set; change: largest relative change from set 1")
    for workload in workloads:
        for metric in metrics:
            name = metric["name"]
            seen = [m[name] for m in medians[workload] if name in m]
            if len(seen) < args.sets:
                print(f"  {workload:<16} {name:<14} missing in a set")
                bad = True
                continue
            change = max(abs(m - seen[0]) / seen[0] for m in seen[1:])
            flag = ""
            if change > metric["bound"]:
                flag, bad = "  SETS DISAGREE", True
            shown = " ".join(f"{m:.4g}" for m in seen)
            print(
                f"  {workload:<16} {name:<14} {shown}  "
                f"change {change:.3f} bound {metric['bound']}{flag}"
            )
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
