"""Workloads, inputs, report checks and environment of the oproj benchmark."""

from __future__ import annotations

import json
import math
import os
import platform
import statistics
from dataclasses import dataclass
from importlib import metadata
from pathlib import Path

import numpy as np

BENCH_DIR = Path(__file__).resolve().parent
REFERENCE_PATH = BENCH_DIR / "reference.json"
DEFAULT_SEED = 7
NOISE_SD = 0.1
# Reference raw deltas are compared with this relative tolerance, so that a
# change of summation order (BLAS threads, a vectorised rewrite) still passes.
REFERENCE_RTOL = 1e-6


@dataclass(frozen=True)
class Workload:
    name: str
    route: str  # "subprocess", "surrogate" or "inproc"
    n: int
    k: int
    smoke_n: int
    smoke_k: int


WORKLOADS = {
    w.name: w
    for w in (
        Workload("cli_subprocess", "subprocess", 10_000, 20, 300, 5),
        Workload("cli_surrogate", "surrogate", 50_000, 40, 400, 6),
        Workload("inproc_rank_all", "inproc", 50_000, 40, 400, 6),
    )
}


def synthetic(n: int, k: int, seed: int) -> tuple[tuple[str, ...], np.ndarray, np.ndarray]:
    """Features x1..xk and target from one seeded SyntheticSpec: weights
    k..1, no correlation, noise_sd NOISE_SD."""
    from oproj.dataio import SyntheticSpec, generate_synthetic

    spec = SyntheticSpec(
        n=n,
        coefficients=tuple(float(k - j) for j in range(k)),
        noise_sd=NOISE_SD,
        seed=seed,
    )
    X, y, _order = generate_synthetic(spec)
    return X.names, X.as_array(), y


def write_csv(path: Path, names, data: np.ndarray, target: np.ndarray) -> None:
    """Header plus shortest round-trip decimals, the format oproj reads."""
    rows = np.column_stack([data, target]).tolist()
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join([*names, "target"]) + "\n")
        fh.writelines(",".join(map(repr, row)) + "\n" for row in rows)


def room_for_another(
    durations: list[float], elapsed: float, seconds: float, minimum: int = 1
) -> bool:
    """Start another audit only while the median audit so far still fits in
    the measuring window; the first ``minimum`` audits always run."""
    if len(durations) < minimum:
        return True
    return elapsed + statistics.median(durations) <= seconds


def load_reference(workload: str, seed: int, smoke: bool) -> list | None:
    """Stored [name, raw_delta] ranking for the default seed at full size."""
    if smoke or seed != DEFAULT_SEED:
        return None
    stored = json.loads(REFERENCE_PATH.read_text(encoding="utf-8"))
    return stored[workload]


def check_entries(entries: list[dict], k: int, reference: list | None) -> list[str]:
    """Problems found in one audit's ranked entries; empty when it passes."""
    problems = []
    if len(entries) != k:
        problems.append(f"{len(entries)} entries, expected {k}")
    errored = [e["name"] for e in entries if e.get("error")]
    if errored:
        problems.append(f"errored entries: {errored}")
    if entries and entries[0]["normalized"] != 100.0:
        problems.append(f"top normalized score is {entries[0]['normalized']!r}, not 100")
    if reference is not None and not errored:
        names = [e["name"] for e in entries]
        if names != [name for name, _ in reference]:
            problems.append(f"ranking {names} differs from the reference")
        for e, (name, delta) in zip(entries, reference):
            if e["name"] == name and not math.isclose(
                e["raw_delta"], delta, rel_tol=REFERENCE_RTOL
            ):
                problems.append(
                    f"{name}: raw_delta {e['raw_delta']!r}, reference {delta!r}"
                )
    return problems


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment() -> dict[str, str]:
    env = {
        "nproc": str(len(os.sched_getaffinity(0))),
        "cpu": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": metadata.version("scipy"),
    }
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = os.environ.get(var, "unset")
    return env
