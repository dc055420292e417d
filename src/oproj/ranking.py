"""Per-feature audit loop: transform, re-query, measure, rank.

For each audited feature a worker thread builds its removal one feature
ahead: the projection of every other column onto the orthogonal complement
of the feature's subspace (the feature plus its enabled nonlinear
transforms). The engine applies it, re-inserts the audited column as a
constant so the model still sees k columns in the original order, queries
the model once, and records |baseline - new| as that feature's dependence.

A LinearModel, such as oproj's surrogates, is not queried per feature: its
prediction on a feature's query is its link of the other columns' share of
its linear predictor, projected, plus a constant. So the worker projects
that one column, and the engine reads the prediction off it.
"""

from __future__ import annotations

import os
from collections import deque
from collections.abc import Callable
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from functools import partial

import numpy as np

from .adapters import LinearModel, ModelHandle
from .dataio import standardize
from .errors import (
    AdapterError,
    AuditFailedError,
    DegenerateFeatureError,
    DegenerateSubspaceError,
    DimensionError,
)
from .linalg import (
    FeatureMatrix,
    one_blas_thread,
    orthonormalize,
    transform_against_feature,
    transform_against_vector,
)
from .transforms import TransformSet, build_removal_candidates

REPLACEMENT_POLICIES = ("mean", "zero", "constant")
METRIC_KINDS = ("mse", "accuracy")
# Repeat-query disagreement above this is flagged as nondeterminism.
REPEATABILITY_TOL = 1e-12


@dataclass(frozen=True)
class PerformanceMetric:
    """Mean squared error for regression scores, accuracy for classification.

    ``threshold`` binarizes scores (both predictions and targets) and is
    only consulted for accuracy. It must lie in (0, 1) for every kind, so
    the report echoes a finite number.
    """

    kind: str = "mse"
    threshold: float = 0.5

    def __post_init__(self):
        if self.kind not in METRIC_KINDS:
            raise ValueError(f"metric kind must be one of {METRIC_KINDS}")
        if not 0.0 < self.threshold < 1.0:
            raise ValueError(f"threshold must lie in (0,1), got {self.threshold}")


@dataclass(frozen=True)
class AuditConfig:
    """Everything that pins down one audit run.

    With a fixed seed the run is deterministic byte for byte; the audit
    itself draws no randomness, the seed is echoed for provenance and used
    by surrogate training splits.
    """

    metric: PerformanceMetric = PerformanceMetric()
    transforms: TransformSet = field(default_factory=TransformSet)
    replacement: str = "mean"
    replacement_value: float = 0.0
    standardize: bool = True
    seed: int = 0
    check_repeatability: bool = False

    def __post_init__(self):
        if self.replacement not in REPLACEMENT_POLICIES:
            raise ValueError(
                f"replacement must be one of {REPLACEMENT_POLICIES}, "
                f"got '{self.replacement}'"
            )
        if not np.isfinite(self.replacement_value):
            raise ValueError(
                f"replacement_value must be finite, got {self.replacement_value}"
            )


def compute_metric(pred, y, metric: PerformanceMetric) -> float:
    """MSE = mean((pred-y)^2); accuracy = fraction of threshold-binarized
    agreement. An MSE beyond float64 range comes back as inf, without a
    warning; the audit flags it."""
    pred = np.asarray(pred, dtype=np.float64).reshape(-1)
    y = np.asarray(y, dtype=np.float64).reshape(-1)
    if pred.shape[0] != y.shape[0]:
        raise DimensionError(
            f"prediction length {pred.shape[0]} vs target length {y.shape[0]}"
        )
    if pred.shape[0] == 0:
        raise DimensionError("cannot score zero samples")
    if metric.kind == "mse":
        with np.errstate(over="ignore"):
            return float(np.mean((pred - y) ** 2))
    return float(np.mean((pred >= metric.threshold) == (y >= metric.threshold)))


@dataclass(frozen=True)
class FeatureResult:
    """One report row; only rank_all builds them. ``raw_delta`` and
    ``normalized`` are None when the feature's audit errored; ``error`` then
    carries the reason."""

    name: str
    raw_delta: float | None
    normalized: float | None
    dropped_count: int
    error: str | None = None


@dataclass(frozen=True)
class DependenceReport:
    """Baseline plus per-feature dependence, sorted by descending raw delta
    (ties by name, errored entries last). The largest normalized score is
    exactly 100 unless every delta is zero. ``target`` is the vector every
    query was scored against: the recorded target, or the captured output."""

    baseline: float
    entries: tuple[FeatureResult, ...]
    config: AuditConfig
    warnings: tuple[str, ...] = ()
    target: np.ndarray | None = field(default=None, repr=False, compare=False)

    def entry(self, name: str) -> FeatureResult:
        for e in self.entries:
            if e.name == name:
                return e
        raise KeyError(name)


def _replacement_value(raw_column: np.ndarray, cfg: AuditConfig) -> float:
    if cfg.replacement == "mean":
        return float(np.mean(raw_column))
    if cfg.replacement == "zero":
        return 0.0
    return float(cfg.replacement_value)


def _removal(
    audit: FeatureMatrix, current: str, cfg: AuditConfig, scale, offset
) -> tuple[Callable[[np.ndarray], None], int]:
    """``(project, dropped_count)``: ``project(query)`` writes every column
    of ``audit`` but ``current`` into the n x k ``query``, projected off
    ``current``'s removal subspace and mapped back to the model's native
    scale (``scale`` and ``offset`` are None when the audit runs
    unstandardized); the caller overwrites column ``current``. rank_all
    calls this on a worker thread, one feature ahead.
    """
    if np.ptp(audit.data[:, audit.index(current)]) == 0.0:
        raise DegenerateFeatureError("the column is constant and cannot be audited")
    if audit.k == 1:
        return (lambda query: None), 0
    back = {"scale": scale, "offset": offset}
    candidates = build_removal_candidates(audit, current, cfg.transforms)
    if len(candidates) == 1:
        # Pure linear removal: identical arithmetic to projecting against
        # the raw vector, so transform-free runs reduce exactly to the
        # single-vector algorithm.
        return partial(transform_against_vector, audit, current, **back), 0
    basis = orthonormalize(candidates)
    project = partial(transform_against_feature, audit, current, basis, **back)
    return project, basis.dropped_count


def _reduced_removal(
    audit: FeatureMatrix, current: str, cfg: AuditConfig, z: np.ndarray, weights: np.ndarray
) -> tuple[np.ndarray, int]:
    """A linear model's removal: ``(P z_j, dropped_count)``, with j the
    index of ``current``, z = audit @ weights, z_j = z - weights_j s_j the
    other columns' share of it and P the projection ``_removal`` applies.

    The removal candidates come from column j alone, so ``_removal`` on
    the two columns [s_j, z_j] takes the route, drops the candidates and
    raises the errors that it does on the whole audit matrix.
    """
    j = audit.index(current)
    if audit.k == 1:
        return np.zeros(audit.n), _removal(audit, current, cfg, None, None)[1]
    pair = np.empty((audit.n, 2), order="F")
    pair[:, 0] = audit.data[:, j]
    np.multiply(audit.data[:, j], weights[j], out=pair[:, 1])
    np.subtract(z, pair[:, 1], out=pair[:, 1])
    # Any name but current's will do for z_j's column.
    reduced = FeatureMatrix._adopt((current, current + "'"), pair)
    project, dropped = _removal(reduced, current, cfg, None, None)
    out = np.empty((audit.n, 2))
    project(out)
    return out[:, 1], dropped


# What a feature's audit flags instead of aborting the run. Its entry's
# error is the message with the feature's name put before it.
_AUDIT_ERRORS = (DegenerateFeatureError, DegenerateSubspaceError, AdapterError)


def _normalize_entries(
    outcomes: list[FeatureResult], errors: dict[str, str]
) -> tuple[FeatureResult, ...]:
    max_raw = max((o.raw_delta for o in outcomes), default=0.0)
    scored = [
        replace(o, normalized=100.0 * (o.raw_delta / max_raw) if max_raw > 0.0 else 0.0)
        for o in outcomes
    ]
    scored.sort(key=lambda e: (-e.raw_delta, e.name))
    errored = [
        FeatureResult(name=n, raw_delta=None, normalized=None, dropped_count=0, error=msg)
        for n, msg in sorted(errors.items())
    ]
    return tuple(scored + errored)


def _model_width() -> int:
    """How many launched queries rank_all keeps in flight: two when this
    process may run on two or more CPUs, else one. The cap bounds the extra
    memory at one more model process."""
    if hasattr(os, "sched_getaffinity"):
        cpus = len(os.sched_getaffinity(0))
    else:
        cpus = os.cpu_count() or 1
    return min(2, cpus)


@one_blas_thread()
def rank_all(
    model: ModelHandle,
    X: FeatureMatrix,
    cfg: AuditConfig,
    y=None,
) -> DependenceReport:
    """Audit every feature and assemble the ranked dependence report.

    This is the one function that queries the model. When ``y`` is None the
    target is the model's own captured output on the original matrix, so
    the baseline is perfect by construction and deltas measure how far the
    model moves when a feature's footprint is removed. A given ``y`` must
    hold n finite values; it is checked before any query. The run makes one
    capture query (two with ``check_repeatability``, whose repeat warns when
    the model disagrees with itself beyond REPEATABILITY_TOL), then one per
    feature not flagged before its query is built: k+1 when none is.
    Per-feature failures become flagged entries rather than aborting the run.

    The audit runs with numpy's OpenBLAS set to one thread (see
    ``one_blas_thread``), an in-process model's own BLAS calls included, so
    the report has the same bits whatever OPENBLAS_NUM_THREADS is. A
    worker thread builds feature j+1's removal (its basis, or the
    single-vector route) while feature j is projected, queried and scored,
    one removal at a time; the model is only called on the caller's thread.

    A LinearModel, link(X @ w + b), is queried only to capture. With S the
    audit matrix, s its columns, and sigma and mu its scales and offsets
    (1 and 0 unstandardized), feature j's query would predict
    link(P z_j + c_j): z_j = sum over i != j of w_i sigma_i s_i, P its
    projection off j's removal subspace and c_j = b + sum over i != j of
    w_i mu_i + w_j times j's replacement value. The worker projects z_j
    alone, an n x 2 removal in place of an n x k one, and the prediction
    is read off it.
    """
    if y is not None:
        y = np.asarray(y, dtype=np.float64).reshape(-1)
        if y.shape[0] != X.n:
            raise DimensionError(f"target length {y.shape[0]} does not match {X.n} rows")
        bad = np.flatnonzero(~np.isfinite(y))
        if bad.size:
            raise ValueError(f"target is not finite at row {int(bad[0])}")
    captured = model.predict_batch(X)
    warnings: tuple[str, ...] = ()
    if cfg.check_repeatability:
        spread = float(np.max(np.abs(captured - model.predict_batch(X))))
        if spread > REPEATABILITY_TOL:
            warnings = (
                f"model is not repeatable: repeat query differs by up to {spread:.3e}",
            )
    target = captured if y is None else y
    baseline = compute_metric(captured, target, cfg.metric)
    if not np.isfinite(baseline):
        raise AuditFailedError(
            f"the baseline metric overflows float64 ({baseline}); rescale the "
            "model's outputs or the target"
        )
    audit, offset, scale = standardize(X) if cfg.standardize else (X, None, None)
    linear = isinstance(model, LinearModel)
    if linear:
        w = model.coefficients
        weights = w if scale is None else w * scale
        build = partial(_reduced_removal, z=audit.data @ weights, weights=weights)
        # c_j less w_j times the replacement value.
        constant = [
            model.intercept
            + (0.0 if offset is None else float(np.dot(np.delete(w, j), np.delete(offset, j))))
            for j in range(X.k)
        ]
    else:
        build = partial(_removal, scale=scale, offset=offset)

    # Lookahead: up to _model_width() launched queries are in flight.
    # Feature j+1's query is built while their models answer; when the
    # flight is full its oldest query is collected and scored before j+1's
    # is encoded and launched, so replies are scored in launch order. An
    # in-process model answers inside launch, so its flight holds finished
    # predictions. The worker builds each feature's removal one feature
    # ahead, and the error it raises for a feature surfaces at that feature's turn.
    width = _model_width()
    outcomes: list[FeatureResult] = []
    errors: dict[str, str] = {}
    flight: deque = deque()  # (name, dropped count, running query), oldest first

    def settle_oldest() -> None:
        # A function, so that the reply it scores is freed on return and
        # the only predictions alive are those of the queries in flight.
        previous, previous_dropped, running = flight[0]
        try:
            b_new = compute_metric(model.collect(running), target, cfg.metric)
            raw_delta = abs(baseline - b_new)
            if not np.isfinite(raw_delta):
                raise DegenerateFeatureError(
                    f"the metric overflows float64 (b_new {b_new}); rescale the data"
                )
            outcomes.append(FeatureResult(previous, raw_delta, None, previous_dropped))
        except _AUDIT_ERRORS as exc:
            errors[previous] = f"feature '{previous}': {exc}"
        flight.popleft()

    def launch(name: str, removal, dropped: int) -> None:
        # A function, so that its query is freed on return and one n x k
        # query is alive at a time. The query is a fresh row-major array,
        # in the layout the model reads; the audited column becomes a
        # constant carrying no information. A linear model's removal is
        # its projected z_j instead, and it answers from that.
        idx = X.index(name)
        value = _replacement_value(X.data[:, idx], cfg)
        if linear:
            start = partial(model.respond, removal + (constant[idx] + w[idx] * value))
        else:
            query = np.empty((X.n, X.k))
            removal(query)
            query[:, idx] = value
            start = partial(model.launch, X.names, query)
        if len(flight) == width:
            settle_oldest()
        flight.append((name, dropped, start()))

    worker = ThreadPoolExecutor(max_workers=1)
    try:
        ahead = worker.submit(build, audit, X.names[0], cfg)
        for j, name in enumerate(X.names):
            building = ahead
            if j + 1 < X.k:
                ahead = worker.submit(build, audit, X.names[j + 1], cfg)
            try:
                launch(name, *building.result())
            except _AUDIT_ERRORS as exc:
                errors[name] = f"feature '{name}': {exc}"
        while flight:
            settle_oldest()
    finally:
        worker.shutdown(cancel_futures=True)
        for _, _, running in flight:
            model.abort(running)
    if not outcomes:
        raise AuditFailedError(
            f"all {X.k} feature audits failed: {sorted(errors.values())}"
        )
    return DependenceReport(
        baseline=baseline,
        entries=_normalize_entries(outcomes, errors),
        config=cfg,
        warnings=warnings,
        target=target,
    )
