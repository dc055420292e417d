"""Frozen bits of ``rank_all``: every raw delta, as ``float.hex``, across
standardization, transform sets, replacement policies and a one-column
matrix.

The golden report covers only the default configuration; this fixture
pins the arithmetic of every other route through the audit, so a refactor
of the projection path must keep each delta to the last bit.

The matrices stay small (n <= 3000) because OpenBLAS splits larger dot
products across threads, which changes their last bits with the thread
count. To regenerate the fixture after a deliberate change of arithmetic:

    PYTHONPATH=src python3 tests/test_rank_all_bits.py
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest

from oproj.adapters import InProcessModel
from oproj.linalg import FeatureMatrix
from oproj.ranking import AuditConfig, rank_all
from oproj.transforms import TransformSet

FIXTURE = Path(__file__).parent / "fixtures" / "rank_all_bits.json"

TRANSFORMS = {
    "all": TransformSet(),
    "none": TransformSet.none(),
    "pow2": TransformSet(enable_log=False, poly_degrees=(2,), enable_exp=False),
}


def _data(n: int = 701) -> FeatureMatrix:
    """Correlated columns, one with a large offset and one skewed; an odd
    row count so that column views start off any vector alignment."""
    rng = np.random.default_rng(20160)
    z = rng.standard_normal((n, 5))
    data = np.column_stack(
        [
            z[:, 0],
            0.6 * z[:, 0] + 0.8 * z[:, 1],
            1e6 + 3.0 * z[:, 2],
            np.exp(0.5 * z[:, 3]),
            0.3 * z[:, 1] - 0.5 * z[:, 3] + z[:, 4],
        ]
    )
    return FeatureMatrix.from_arrays(["a", "b", "big_offset", "skewed", "mix"], data)


def _model(a: np.ndarray) -> np.ndarray:
    k = a.shape[1]
    return a @ np.linspace(1.0, 0.2, k) + 0.5 * a[:, 0] ** 2 + np.sin(a[:, -1])


def _configs():
    for standardize in (True, False):
        for ts_name, ts in TRANSFORMS.items():
            for replacement in ("mean", "zero"):
                label = f"{'std' if standardize else 'raw'}-{ts_name}-{replacement}"
                cfg = AuditConfig(
                    transforms=ts, replacement=replacement, standardize=standardize
                )
                yield label, _data(), cfg
    one = FeatureMatrix.from_arrays(["a"], _data().data[:, :1])
    for standardize in (True, False):
        yield f"k1-{'std' if standardize else 'raw'}", one, AuditConfig(standardize=standardize)


def _bits(X: FeatureMatrix, cfg: AuditConfig) -> dict:
    report = rank_all(InProcessModel(_model), X, cfg)
    return {
        "baseline": float(report.baseline).hex(),
        "raw_delta": {
            e.name: None if e.raw_delta is None else float(e.raw_delta).hex()
            for e in report.entries
        },
    }


CONFIGS = {label: (X, cfg) for label, X, cfg in _configs()}


@pytest.mark.parametrize("label", sorted(CONFIGS))
def test_raw_deltas_match_frozen_bits(label):
    frozen = json.loads(FIXTURE.read_text(encoding="utf-8"))
    assert _bits(*CONFIGS[label]) == frozen[label]


if __name__ == "__main__":
    bits = {label: _bits(X, cfg) for label, (X, cfg) in CONFIGS.items()}
    FIXTURE.write_text(json.dumps(bits, indent=1, sort_keys=True) + "\n", encoding="utf-8")
