"""Worker for the inproc_rank_all workload: one process, library calls only.

    python3 bench/inproc.py --data X.npy --setup-only
    python3 bench/inproc.py --data X.npy --seconds S --trace 0|1 --out RESULT.json

Set-up is the oproj import plus FeatureMatrix.from_arrays over the n x k
array in X.npy. The audit is ``rank_all`` against the in-process model
a @ w + 0.5 * a[:, 0]**2 with w = k..1, default TransformSet and the
captured target. Audits repeat until the next one would overrun S seconds;
with ``--trace 1`` every second audit runs under the layer wrappers.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
import traceback

import numpy as np
import oproj.ranking as ranking
from oproj.adapters import InProcessModel
from oproj.linalg import FeatureMatrix


def _cpu_seconds() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def _audit(model, X, traced: bool, index: int) -> dict:
    rec = undo = None
    missing: set[str] = set()
    if traced:
        import layers
        from spans import Recorder

        rec = Recorder(audit_id=str(index))
        undo, missing = layers.install(rec)
    wall0, cpu0 = time.perf_counter(), _cpu_seconds()
    try:
        report, error = ranking.rank_all(model, X, ranking.AuditConfig()), None
    except Exception:
        report, error = None, traceback.format_exc()
    wall, cpu = time.perf_counter() - wall0, _cpu_seconds() - cpu0
    if undo is not None:
        layers.uninstall(undo)
    return {
        "wall": wall,
        "cpu": cpu,
        "traced": traced,
        "error": error,
        "entries": [
            {
                "name": e.name,
                "raw_delta": e.raw_delta,
                "normalized": e.normalized,
                "error": e.error,
            }
            for e in (report.entries if report is not None else ())
        ],
        "trace": rec.dump() if rec is not None else None,
        "missing": sorted(missing),
    }


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--data", required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--seconds", type=float, default=32.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out")
    args = parser.parse_args(argv)

    a = np.load(args.data)
    k = a.shape[1]
    X = FeatureMatrix.from_arrays([f"x{j + 1}" for j in range(k)], a)
    if args.setup_only:
        return 0

    from harness import room_for_another

    w = np.arange(k, 0, -1, dtype=np.float64)
    model = InProcessModel(lambda m: m @ w + 0.5 * m[:, 0] ** 2)
    audits: list[dict] = []
    start = time.perf_counter()
    while room_for_another(
        [x["wall"] for x in audits],
        time.perf_counter() - start,
        args.seconds,
        minimum=1 + args.trace,
    ):
        traced = bool(args.trace) and len(audits) % 2 == 1
        audits.append(_audit(model, X, traced, len(audits)))
    maxrss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump({"audits": audits, "maxrss_kb": maxrss_kb}, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
