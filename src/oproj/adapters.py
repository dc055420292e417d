"""Uniform batch-prediction interface over in-process and subprocess models.

Subprocess wire protocol: the model's stdin is a regular file holding CSV
(header row of feature names, then one data row per sample, shortest
round-trip decimal formatting), and the auditor expects exactly n lines on
stdout, each a single decimal prediction. Exit status must be 0. One
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
from itertools import groupby
from operator import itemgetter
from typing import BinaryIO, Callable, Sequence, TextIO

import numpy as np
import orjson

from .errors import (
    AdapterError,
    DataError,
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
    """A queryable black box: n rows in, n finite predictions out.

    A query runs in three steps, so that a caller can encode its next query
    while the model answers this one: ``prepare`` checks the column names
    and encodes the query, ``launch`` starts the model on it, and
    ``collect`` waits for the reply and validates it. ``abort`` stops a
    launched query whose reply is no longer wanted. Several launched
    queries may be in flight at once, each collected or aborted once;
    ``rank_all`` keeps up to two.
    """

    feature_names: tuple[str, ...] | None = None

    def predict_batch(self, X: FeatureMatrix) -> np.ndarray:
        """Query the model once and validate the reply."""
        return self.collect(self.launch(self.prepare(X)))

    def prepare(self, X: FeatureMatrix):
        """Check the column names and encode the query for ``launch``."""
        if self.feature_names is not None and X.names != self.feature_names:
            raise AdapterError(
                f"model expects columns {list(self.feature_names)}, "
                f"got {list(X.names)}"
            )
        return self._encode(X)

    def _encode(self, X: FeatureMatrix):
        """The query in the form ``launch`` takes; by default the matrix."""
        return X

    @abstractmethod
    def launch(self, encoded):
        """Start the model on a prepared query; returns what ``collect``
        and ``abort`` take."""

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

    def _predict(self, X: FeatureMatrix) -> np.ndarray:
        return self.fn(X.as_array())

    def launch(self, encoded: FeatureMatrix) -> tuple[np.ndarray, int]:
        return self._predict(encoded), encoded.n

    def collect(self, running: tuple[np.ndarray, int]) -> np.ndarray:
        return _validated(*running)


@dataclass(frozen=True)
class SubprocessSpec:
    """How to invoke an external model: argv, time budget, batch cap."""

    command: tuple[str, ...]
    timeout: float = 60.0
    max_batch_rows: int = 1_000_000

    def __post_init__(self):
        if not self.command:
            raise ValueError("command must not be empty")
        # threading's waits refuse a timeout above TIMEOUT_MAX.
        if not 0 < self.timeout <= threading.TIMEOUT_MAX:
            raise ValueError(
                f"timeout must be in (0, {threading.TIMEOUT_MAX:g}] seconds, "
                f"got {self.timeout}"
            )
        if not self.max_batch_rows >= 1:
            raise ValueError(f"max_batch_rows must be >= 1, got {self.max_batch_rows}")
        object.__setattr__(self, "command", tuple(self.command))


# Rows encoded per write: enough to amortize the per-call overhead, few
# enough that a block's text stays small next to the matrix.
_CSV_BLOCK_ROWS = 1024

# Characters a header cell cannot hold, since the format has no quoting.
_UNQUOTABLE = (",", '"', "\r", "\n")


def check_header_names(names: Sequence[str]) -> None:
    """Raise ``DataError`` naming every name that holds a comma, a double
    quote, CR or LF, which the unquoted CSV header cannot carry."""
    bad = [n for n in names if any(c in n for c in _UNQUOTABLE)]
    if bad:
        raise DataError(
            f"column names {bad} hold a comma, double quote, CR or LF, which "
            "the unquoted CSV header cannot carry"
        )


def format_matrix_csv(names: Sequence[str], data: np.ndarray, out: TextIO) -> None:
    """Write a header row and one CSV line per row of ``data`` to ``out``.

    Every value is written as ``repr`` writes it, the shortest decimal that
    parses back to the identical float64. This is both the wire payload and
    the ``save_csv`` file format.

    orjson writes each block of rows with the same shortest digits, about
    ten times faster than ``repr``, but spells three kinds of value its own
    way: 1e-9 <= |x| < 1e-4 (``0.00001`` for ``1e-05``, ``1e-6`` for
    ``1e-06``), |x| >= 1e16 (``1e16`` for ``1e+16``) and nan or inf
    (``null``). Below 1e-9 both write the same exponent form. Only those
    cells are rewritten with ``repr``, so the text is ``repr``'s byte for
    byte and the extra cost grows with the number of such cells. The rule
    was checked with orjson 3.8.3; ``test_adapters`` checks it against
    ``repr``, and must pass before orjson is upgraded.

    Cells are not quoted, so a name holding a comma, a double quote, CR or
    LF raises ``DataError`` before anything is written.
    """
    check_header_names(names)
    out.write(",".join(names) + "\n")
    for start in range(0, data.shape[0], _CSV_BLOCK_ROWS):
        block = np.ascontiguousarray(
            data[start : start + _CSV_BLOCK_ROWS], dtype=np.float64
        )
        text = orjson.dumps(block, option=orjson.OPT_SERIALIZE_NUMPY)
        lines = text[2:-2].decode("ascii").split("],[")
        mag = np.abs(block)
        # ~(mag < 1e16) also holds for nan and inf. np.nonzero lists the
        # cells row by row, so groupby yields each row once.
        rows, cols = np.nonzero(((mag >= 1e-9) & (mag < 1e-4)) | ~(mag < 1e16))
        respelled = zip(rows.tolist(), cols.tolist(), block[rows, cols].tolist())
        for i, row_cells in groupby(respelled, key=itemgetter(0)):
            cells = lines[i].split(",")
            for _, j, value in row_cells:
                cells[j] = repr(value)
            lines[i] = ",".join(cells)
        out.write("\n".join(lines) + "\n")


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


@dataclass(frozen=True)
class _Payload:
    """An encoded query: its CSV text in an unnamed file, at offset 0."""

    file: TextIO
    rows: int


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

    def _encode(self, X: FeatureMatrix) -> _Payload:
        if X.n > self.spec.max_batch_rows:
            raise AdapterError(
                f"batch of {X.n} rows exceeds cap {self.spec.max_batch_rows}"
            )
        file = tempfile.TemporaryFile("w+", encoding="utf-8", newline="")
        try:
            format_matrix_csv(X.names, X.data, file)
            file.seek(0)
        except BaseException:
            file.close()
            raise
        return _Payload(file, X.n)

    def launch(self, encoded: _Payload) -> _Running:
        cmd = list(self.spec.command)
        with encoded.file:
            stdout, stderr = tempfile.TemporaryFile(), tempfile.TemporaryFile()
            try:
                proc = subprocess.Popen(
                    cmd,
                    stdin=encoded.file,
                    stdout=stdout,
                    stderr=stderr,
                    start_new_session=True,
                )
            except OSError as exc:
                stdout.close()
                stderr.close()
                raise AdapterError(f"cannot run model command {cmd}: {exc}") from exc
        return _Running(
            proc, stdout, stderr, time.monotonic() + self.spec.timeout, encoded.rows
        )

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
                running.stderr.seek(0)
                stderr = running.stderr.read().decode("utf-8", errors="replace").strip()
                raise ModelExitError(
                    f"model command {cmd} exited with status {proc.returncode}"
                    + (f": {stderr[:500]}" if stderr else "")
                )
            running.stdout.seek(0)
            reply = running.stdout.read()
        try:
            text = reply.decode("utf-8")
        except UnicodeDecodeError as exc:
            row = reply.count(b"\n", 0, exc.start)
            raise MalformedOutputError(
                f"prediction at row {row} is not UTF-8: {reply[exc.start : exc.end]!r}",
                row=row,
            ) from None
        pred = parse_prediction_lines(text, running.rows)
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
