"""Uniform batch-prediction interface over in-process and subprocess models.

Subprocess wire protocol: the model's stdin is a regular file holding CSV
(header row of feature names, then one data row per sample, shortest
round-trip decimal formatting), and the auditor expects exactly n lines on
stdout, each a single ASCII decimal prediction, in at most
REPLY_BASE_BYTES + REPLY_ROW_BYTES * n bytes. Exit status must be 0. One
process invocation per batch; no session state is kept between calls.
"""

from __future__ import annotations

import contextlib
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
    DimensionError,
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
# A reply to an n-row query may hold at most REPLY_BASE_BYTES plus
# REPLY_ROW_BYTES per row; a larger one is refused unread.
REPLY_BASE_BYTES = 4096
REPLY_ROW_BYTES = 256


class ModelHandle(ABC):
    """A queryable black box: n rows in, n finite predictions out.

    A query runs in two steps, so that a caller can build its next query
    while the model answers this one: ``launch`` checks the query, encodes
    it and starts the model on it, and ``collect`` waits for the reply and
    validates it. ``abort`` stops a launched query whose reply is no longer
    wanted. Several launched queries may be in flight at once, each
    collected or aborted once; ``rank_all`` keeps up to two.

    A query is its column names and a fresh, writable, C-order float64
    n x len(names) array of rows, which the handle owns from ``launch``
    on, so a model may read it in place and write to it.
    """

    feature_names: tuple[str, ...] | None = None

    def predict_batch(self, X: FeatureMatrix) -> np.ndarray:
        """Query the model once on a row-major copy of ``X`` and validate
        the reply."""
        return self.collect(self.launch(X.names, X.as_array()))

    def launch(self, names: Sequence[str], rows: np.ndarray):
        """Check the column names and the layout of ``rows``, then start
        the model on them; returns what ``collect`` and ``abort`` take."""
        names = tuple(names)
        if self.feature_names is not None and names != self.feature_names:
            raise AdapterError(
                f"model expects columns {list(self.feature_names)}, got {list(names)}"
            )
        if not (
            rows.shape[1:] == (len(names),)
            and rows.dtype == np.float64
            and rows.flags.c_contiguous
            and rows.flags.writeable
        ):
            raise DimensionError(
                f"rows must be a writable C-order float64 n x {len(names)} array, "
                f"got {rows.dtype} {rows.shape}"
            )
        return self._start(names, rows)

    @abstractmethod
    def _start(self, names: tuple[str, ...], rows: np.ndarray):
        """Encode the query and start the model on it."""

    @abstractmethod
    def collect(self, running) -> np.ndarray:
        """Wait for a launched query's reply and validate it."""

    def abort(self, running) -> None:
        """Stop a launched query without collecting it."""


def _validated(pred, n: int) -> np.ndarray:
    pred = np.asarray(pred)
    if pred.dtype.kind not in "biuf":
        # Text fails to convert, and complex values lose their imaginary part.
        raise MalformedOutputError(f"model returned {pred.dtype} values, not numbers")
    pred = pred.astype(np.float64, copy=False).reshape(-1)
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

    The callable receives the query's rows themselves, without a copy: a
    fresh, writable, C-order array that no other query shares. It answers
    on the caller's thread, in ``launch``, with no time budget. An
    ``Exception`` it raises comes back as an AdapterError caused by it, so
    the audit flags that query's feature as it does a failed subprocess.
    """

    def __init__(
        self,
        fn: Callable[[np.ndarray], np.ndarray],
        *,
        feature_names: Sequence[str] | None = None,
    ):
        self.fn = fn
        self.feature_names = tuple(feature_names) if feature_names is not None else None

    def _start(self, names: tuple[str, ...], rows: np.ndarray) -> tuple[np.ndarray, int]:
        try:
            return self.fn(rows), rows.shape[0]
        except AdapterError:
            raise
        except Exception as exc:
            raise AdapterError(f"model callable raised {type(exc).__name__}: {exc}") from exc

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
    counted from launch, is spent. Its whole process group is killed once
    it has exited, before its reply is read, or once it has timed out.
    """

    def __init__(
        self,
        spec: SubprocessSpec,
        *,
        feature_names: Sequence[str] | None = None,
    ):
        self.spec = spec
        self.feature_names = tuple(feature_names) if feature_names is not None else None

    def _start(self, names: tuple[str, ...], rows: np.ndarray) -> _Running:
        cmd = list(self.spec.command)
        with tempfile.TemporaryFile() as payload:
            format_matrix_csv(names, rows, payload)
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
        deadline = time.monotonic() + self.spec.timeout
        return _Running(proc, stdout, stderr, deadline, rows.shape[0])

    def collect(self, running: _Running) -> np.ndarray:
        cmd = list(self.spec.command)
        proc = running.proc
        try:
            # A model that has already exited answers at once. Otherwise a
            # thread blocked in waitid returns as soon as the model exits,
            # where proc.wait(timeout=...) would poll, sleeping up to 50 ms
            # between checks. Neither reaps the model.
            if not _has_exited(proc):
                waiter = threading.Thread(target=_wait_exit, args=(proc,), daemon=True)
                waiter.start()
                waiter.join(max(0.0, running.deadline - time.monotonic()))
            exited = _has_exited(proc)
        except BaseException:
            self.abort(running)
            raise
        if not exited:
            self.abort(running)
            raise ModelTimeoutError(
                f"model command {cmd} exceeded timeout of {self.spec.timeout}s"
            )
        # Whatever the model left running in its group dies with it.
        _kill_group_and_reap(proc)
        with running.stdout, running.stderr:
            if proc.returncode != 0:
                # A traceback ends with its cause: quote the end of stderr.
                size = running.stderr.seek(0, os.SEEK_END)
                running.stderr.seek(max(0, size - STDERR_TAIL_BYTES))
                tail = running.stderr.read().decode("utf-8", errors="replace").strip()
                raise ModelExitError(
                    f"model command {cmd} {_exit_status(proc.returncode)}"
                    + (f": {tail[-STDERR_QUOTE_CHARS:]}" if tail else "")
                )
            size = os.fstat(running.stdout.fileno()).st_size
            cap = REPLY_BASE_BYTES + REPLY_ROW_BYTES * running.rows
            if size > cap:
                raise MalformedOutputError(
                    f"model wrote {size} bytes for {running.rows} rows, over the "
                    f"cap of {cap} bytes ({REPLY_BASE_BYTES} plus "
                    f"{REPLY_ROW_BYTES} per row)"
                )
            running.stdout.seek(0)
            reply = running.stdout.read(size)
        pred = parse_prediction_lines(reply, running.rows)
        return _validated(pred, running.rows)

    def abort(self, running: _Running) -> None:
        """Kill the model's whole process group, then reap the model."""
        _kill_group_and_reap(running.proc)
        running.stdout.close()
        running.stderr.close()


def _has_exited(proc: subprocess.Popen) -> bool:
    """Whether the model has exited, without reaping it."""
    return os.waitid(os.P_PID, proc.pid, os.WEXITED | os.WNOHANG | os.WNOWAIT) is not None


def _wait_exit(proc: subprocess.Popen) -> None:
    """Block until the model exits, without reaping it."""
    # The model may be reaped first, once its query is aborted.
    with contextlib.suppress(ChildProcessError):
        os.waitid(os.P_PID, proc.pid, os.WEXITED | os.WNOWAIT)


def _kill_group_and_reap(proc: subprocess.Popen) -> None:
    """SIGKILL the model's process group, then reap the model. Until it is
    reaped, its pid, and so its group's id, cannot be reused."""
    if proc.returncode is None:
        with contextlib.suppress(ProcessLookupError):
            os.killpg(proc.pid, signal.SIGKILL)
    proc.wait()


def _exit_status(returncode: int) -> str:
    """How a model that failed ended: its exit status, or the signal that
    killed it."""
    if returncode >= 0:
        return f"exited with status {returncode}"
    try:
        name = f" ({signal.Signals(-returncode).name})"
    except ValueError:
        name = ""
    return f"was killed by signal {-returncode}{name}"
