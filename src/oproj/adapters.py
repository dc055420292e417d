"""Uniform batch-prediction interface over in-process and subprocess models.

Subprocess wire protocol: the model's stdin is a regular file holding CSV
(header row of feature names, then one data row per sample, shortest
round-trip decimal formatting), and the auditor expects exactly n lines on
stdout, each a single ASCII decimal prediction. Exit status must be 0. One
process invocation per batch; no session state is kept between calls.
"""

from __future__ import annotations

import os
import signal
import subprocess
import tempfile
import threading
import time
from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import BinaryIO, Callable, Sequence

import numpy as np

from .dataio import format_matrix_csv
from .errors import (
    AdapterError,
    MalformedOutputError,
    ModelExitError,
    ModelTimeoutError,
    NonFinitePredictionError,
    RowCountMismatchError,
)
from .linalg import FeatureMatrix

# A failed model's error quotes the last STDERR_QUOTE_CHARS characters of
# its stderr, read from at most its last STDERR_TAIL_BYTES bytes.
STDERR_TAIL_BYTES = 4096
STDERR_QUOTE_CHARS = 500


class ModelHandle(ABC):
    """A queryable black box: n rows in, n finite predictions out.

    A query runs in two steps, so that a caller can build its next query
    while the model answers this one: ``launch`` checks the column names,
    encodes the query and starts the model on it, and ``collect`` waits
    for the reply and validates it. ``abort`` stops a launched query whose
    reply is no longer wanted. Several launched queries may be in flight
    at once, each collected or aborted once; ``rank_all`` keeps up to two.
    """

    feature_names: tuple[str, ...] | None = None

    def predict_batch(self, X: FeatureMatrix) -> np.ndarray:
        """Query the model once and validate the reply."""
        return self.collect(self.launch(X))

    def launch(self, X: FeatureMatrix):
        """Check the column names and start the model on ``X``; returns
        what ``collect`` and ``abort`` take."""
        if self.feature_names is not None and X.names != self.feature_names:
            raise AdapterError(
                f"model expects columns {list(self.feature_names)}, "
                f"got {list(X.names)}"
            )
        return self._start(X)

    @abstractmethod
    def _start(self, X: FeatureMatrix):
        """Encode ``X`` and start the model on it."""

    @abstractmethod
    def collect(self, running) -> np.ndarray:
        """Wait for a launched query's reply and validate it."""

    def abort(self, running) -> None:
        """Stop a launched query without collecting it."""


def _validated(pred, n: int) -> np.ndarray:
    pred = np.asarray(pred, dtype=np.float64).reshape(-1)
    if pred.shape[0] != n:
        raise RowCountMismatchError(
            f"model returned {pred.shape[0]} predictions for {n} rows"
        )
    bad = np.flatnonzero(~np.isfinite(pred))
    if bad.size:
        raise NonFinitePredictionError(
            f"non-finite prediction at row {int(bad[0])}", row=int(bad[0])
        )
    return pred


class InProcessModel(ModelHandle):
    """Wraps a plain callable mapping an n x k float array to n predictions.

    The callable receives a fresh, writable copy of the query matrix. It
    answers on the caller's thread, in ``launch``.
    """

    def __init__(
        self,
        fn: Callable[[np.ndarray], np.ndarray],
        *,
        feature_names: Sequence[str] | None = None,
    ):
        self.fn = fn
        self.feature_names = tuple(feature_names) if feature_names is not None else None

    def _start(self, X: FeatureMatrix) -> tuple[np.ndarray, int]:
        return self.fn(X.as_array()), X.n

    def collect(self, running: tuple[np.ndarray, int]) -> np.ndarray:
        return _validated(*running)


@dataclass(frozen=True)
class SubprocessSpec:
    """How to invoke an external model: argv and time budget."""

    command: tuple[str, ...]
    timeout: float = 60.0

    def __post_init__(self):
        if not self.command:
            raise ValueError("command must not be empty")
        # threading's waits refuse a timeout above TIMEOUT_MAX.
        if not 0 < self.timeout <= threading.TIMEOUT_MAX:
            raise ValueError(
                f"timeout must be in (0, {threading.TIMEOUT_MAX:g}] seconds, "
                f"got {self.timeout}"
            )
        object.__setattr__(self, "command", tuple(self.command))


def parse_prediction_lines(reply: bytes, expected_rows: int) -> np.ndarray:
    """Parse stdout from a model process: one decimal per line, exactly
    ``expected_rows`` of them (trailing blank lines tolerated). A line that
    is not an ASCII decimal, such as one holding a byte that is not UTF-8,
    is unparseable."""
    lines = reply.splitlines()
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
                f"unparseable prediction at row {i}: {line.strip()[:80]!r}", row=i
            ) from None
    return out


@dataclass(frozen=True)
class _Running:
    """A launched model process, the unnamed files its stdout and stderr
    go to, and when its time budget runs out."""

    proc: subprocess.Popen
    stdout: BinaryIO
    stderr: BinaryIO
    deadline: float
    rows: int


class SubprocessModel(ModelHandle):
    """External model spoken to over the stdin/stdout CSV protocol.

    The payload goes to an unnamed temporary file that becomes the model's
    stdin, and its stdout and stderr go to unnamed files too, so the model
    never waits on the auditor to drain a pipe. The model starts in a new
    session; it times out only if it is still running when its budget,
    counted from launch, is spent, and a timeout kills the whole process
    group.
    """

    def __init__(
        self,
        spec: SubprocessSpec,
        *,
        feature_names: Sequence[str] | None = None,
    ):
        self.spec = spec
        self.feature_names = tuple(feature_names) if feature_names is not None else None

    def _start(self, X: FeatureMatrix) -> _Running:
        cmd = list(self.spec.command)
        with tempfile.TemporaryFile() as payload:
            format_matrix_csv(X.names, X.data, payload)
            payload.seek(0)
            stdout, stderr = tempfile.TemporaryFile(), tempfile.TemporaryFile()
            try:
                proc = subprocess.Popen(
                    cmd,
                    stdin=payload,
                    stdout=stdout,
                    stderr=stderr,
                    start_new_session=True,
                )
            except OSError as exc:
                stdout.close()
                stderr.close()
                raise AdapterError(f"cannot run model command {cmd}: {exc}") from exc
        return _Running(proc, stdout, stderr, time.monotonic() + self.spec.timeout, X.n)

    def collect(self, running: _Running) -> np.ndarray:
        cmd = list(self.spec.command)
        proc = running.proc
        try:
            # poll() answers at once for a model that has already exited.
            # Otherwise a thread blocked in proc.wait() returns as soon as the
            # model exits, where proc.wait(timeout=...) would poll, sleeping
            # up to 50 ms between checks.
            if proc.poll() is None:
                waiter = threading.Thread(target=proc.wait, daemon=True)
                waiter.start()
                waiter.join(max(0.0, running.deadline - time.monotonic()))
        except BaseException:
            self.abort(running)
            raise
        if proc.returncode is None:
            self.abort(running)
            raise ModelTimeoutError(
                f"model command {cmd} exceeded timeout of {self.spec.timeout}s"
            )
        with running.stdout, running.stderr:
            if proc.returncode != 0:
                # A traceback ends with its cause: quote the end of stderr.
                size = running.stderr.seek(0, os.SEEK_END)
                running.stderr.seek(max(0, size - STDERR_TAIL_BYTES))
                tail = running.stderr.read().decode("utf-8", errors="replace").strip()
                raise ModelExitError(
                    f"model command {cmd} exited with status {proc.returncode}"
                    + (f": {tail[-STDERR_QUOTE_CHARS:]}" if tail else "")
                )
            running.stdout.seek(0)
            reply = running.stdout.read()
        pred = parse_prediction_lines(reply, running.rows)
        return _validated(pred, running.rows)

    def abort(self, running: _Running) -> None:
        """Kill the model's whole process group, then reap the model."""
        proc = running.proc
        if proc.returncode is None:
            try:
                os.killpg(proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
        proc.wait()
        running.stdout.close()
        running.stderr.close()
