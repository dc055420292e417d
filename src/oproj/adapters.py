"""Uniform batch-prediction interface over in-process and subprocess models.

Subprocess wire protocol: the auditor writes CSV to the model's stdin
(header row of feature names, then one data row per sample, shortest
round-trip decimal formatting), closes stdin, and expects exactly n lines
on stdout, each a single decimal prediction. Exit status must be 0. One
process invocation per batch; no session state is kept between calls.
"""

from __future__ import annotations

import io
import subprocess
from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import (
    AdapterError,
    MalformedOutputError,
    ModelExitError,
    ModelTimeoutError,
    NonFinitePredictionError,
    RowCountMismatchError,
)
from .linalg import FeatureMatrix

# Repeat-query disagreement above this is flagged as nondeterminism.
REPEATABILITY_TOL = 1e-12


class ModelHandle(ABC):
    """A queryable black box: n rows in, n finite predictions out."""

    feature_names: tuple[str, ...] | None = None

    def predict_batch(self, X: FeatureMatrix) -> np.ndarray:
        """Query the model once and validate the reply."""
        if self.feature_names is not None and X.names != self.feature_names:
            raise AdapterError(
                f"model expects columns {list(self.feature_names)}, "
                f"got {list(X.names)}"
            )
        pred = np.asarray(self._predict(X), dtype=np.float64).reshape(-1)
        if pred.shape[0] != X.n:
            raise RowCountMismatchError(
                f"model returned {pred.shape[0]} predictions for {X.n} rows"
            )
        bad = np.flatnonzero(~np.isfinite(pred))
        if bad.size:
            raise NonFinitePredictionError(
                f"non-finite prediction at row {int(bad[0])}", row=int(bad[0])
            )
        return pred

    @abstractmethod
    def _predict(self, X: FeatureMatrix) -> np.ndarray: ...


class InProcessModel(ModelHandle):
    """Wraps a plain callable mapping an n x k float array to n predictions.

    The callable receives a fresh, writable copy of the query matrix.
    """

    def __init__(
        self,
        fn: Callable[[np.ndarray], np.ndarray],
        *,
        feature_names: Sequence[str] | None = None,
    ):
        self.fn = fn
        self.feature_names = tuple(feature_names) if feature_names is not None else None

    def _predict(self, X: FeatureMatrix) -> np.ndarray:
        return self.fn(X.as_array())


@dataclass(frozen=True)
class SubprocessSpec:
    """How to invoke an external model: argv, time budget, batch cap."""

    command: tuple[str, ...]
    timeout: float = 60.0
    max_batch_rows: int = 1_000_000

    def __post_init__(self):
        if not self.command:
            raise ValueError("command must not be empty")
        if not self.timeout > 0:
            raise ValueError(f"timeout must be positive, got {self.timeout}")
        object.__setattr__(self, "command", tuple(self.command))


def format_matrix_csv(X: FeatureMatrix) -> str:
    """CSV payload sent over the wire. repr() formatting guarantees the
    decimal text parses back to the identical float64."""
    buf = io.StringIO()
    buf.write(",".join(X.names) + "\n")
    data = X.as_array()
    for row in data:
        buf.write(",".join(repr(float(v)) for v in row) + "\n")
    return buf.getvalue()


def parse_prediction_lines(text: str, expected_rows: int) -> np.ndarray:
    """Parse stdout from a model process: one decimal per line, exactly
    ``expected_rows`` of them (trailing blank lines tolerated)."""
    lines = text.splitlines()
    while lines and not lines[-1].strip():
        lines.pop()
    if len(lines) != expected_rows:
        raise RowCountMismatchError(
            f"model wrote {len(lines)} prediction lines for {expected_rows} rows"
        )
    out = np.empty(expected_rows, dtype=np.float64)
    for i, line in enumerate(lines):
        try:
            out[i] = float(line.strip())
        except ValueError:
            raise MalformedOutputError(
                f"unparseable prediction at row {i}: {line.strip()!r}", row=i
            ) from None
    return out


class SubprocessModel(ModelHandle):
    """External model spoken to over the stdin/stdout CSV protocol."""

    def __init__(
        self,
        spec: SubprocessSpec,
        *,
        feature_names: Sequence[str] | None = None,
    ):
        self.spec = spec
        self.feature_names = tuple(feature_names) if feature_names is not None else None

    def _predict(self, X: FeatureMatrix) -> np.ndarray:
        if X.n > self.spec.max_batch_rows:
            raise AdapterError(
                f"batch of {X.n} rows exceeds cap {self.spec.max_batch_rows}"
            )
        payload = format_matrix_csv(X)
        cmd = list(self.spec.command)
        try:
            proc = subprocess.run(
                cmd,
                input=payload.encode("utf-8"),
                capture_output=True,
                timeout=self.spec.timeout,
            )
        except subprocess.TimeoutExpired:
            raise ModelTimeoutError(
                f"model command {cmd} exceeded timeout of {self.spec.timeout}s"
            ) from None
        except OSError as exc:
            raise AdapterError(f"cannot run model command {cmd}: {exc}") from exc
        if proc.returncode != 0:
            stderr = proc.stderr.decode("utf-8", errors="replace").strip()
            raise ModelExitError(
                f"model command {cmd} exited with status {proc.returncode}"
                + (f": {stderr[:500]}" if stderr else "")
            )
        return parse_prediction_lines(proc.stdout.decode("utf-8"), X.n)


def capture_outputs(
    h: ModelHandle, X: FeatureMatrix, *, check_repeatability: bool = False
) -> tuple[np.ndarray, str | None]:
    """Query the model on the original matrix to define the audit target.

    The returned vector is what the caller caches; the baseline is computed
    from it without a second query. With ``check_repeatability`` the model
    is queried twice (one extra batch call) and a warning string is returned
    when the replies disagree beyond REPEATABILITY_TOL.
    """
    y = h.predict_batch(X)
    warning = None
    if check_repeatability:
        y2 = h.predict_batch(X)
        spread = float(np.max(np.abs(y - y2))) if y.size else 0.0
        if spread > REPEATABILITY_TOL:
            warning = (
                f"model is not repeatable: repeat query differs by up to {spread:.3e}"
            )
    return y, warning
