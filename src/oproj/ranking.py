"""Per-feature audit loop: transform, re-query, measure, rank.

For each audited feature the engine builds a removal subspace (the feature
plus its enabled nonlinear transforms), projects every other column onto its
orthogonal complement, re-inserts the audited column as a constant so the
model still sees k columns in the original order, queries the model once,
and records |baseline - new| as that feature's dependence.
"""

from __future__ import annotations

import os
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace

import numpy as np

from .adapters import ModelHandle
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
    ProjectionBasis,
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


@dataclass(frozen=True)
class _Prepared:
    """Original matrix plus the (possibly standardized) projection space.
    ``offset`` and ``scale`` map the projection space back to native scale,
    and are None when the audit runs unstandardized."""

    raw: FeatureMatrix
    audit: FeatureMatrix
    offset: np.ndarray | None
    scale: np.ndarray | None


def _replacement_value(raw_column: np.ndarray, cfg: AuditConfig) -> float:
    if cfg.replacement == "mean":
        return float(np.mean(raw_column))
    if cfg.replacement == "zero":
        return 0.0
    return float(cfg.replacement_value)


def _removal_basis(
    prepared: _Prepared, current: str, cfg: AuditConfig
) -> ProjectionBasis | None:
    """The orthonormal basis of the subspace that removes ``current``; None
    when ``current``'s own column spans it, or when no other column is left
    to project.

    rank_all builds each feature's basis on a worker thread while the
    feature before it is projected, queried and scored.
    """
    audit = prepared.audit
    if np.ptp(audit.data[:, audit.index(current)]) == 0.0:
        raise DegenerateFeatureError("the column is constant and cannot be audited")
    if audit.k == 1:
        return None
    candidates = build_removal_candidates(audit, current, cfg.transforms)
    if len(candidates) == 1:
        return None
    return orthonormalize(candidates)


def _build_query(
    prepared: _Prepared, current: str, basis: ProjectionBasis | None, cfg: AuditConfig
) -> np.ndarray:
    """The query that removes ``current``, given its removal basis: a fresh
    row-major n x k array, in the layout the model reads.

    The other columns are projected off the removal subspace and mapped
    back to the model's native scale; the audited column becomes a
    constant carrying no information. The query is the only n x k array
    built here.
    """
    audit, raw = prepared.audit, prepared.raw
    idx = audit.index(current)
    query = np.empty((raw.n, raw.k))
    if raw.k > 1:
        if basis is None:
            # Pure linear removal: identical arithmetic to projecting
            # against the raw vector, so transform-free runs reduce
            # exactly to the single-vector algorithm.
            transform_against_vector(audit, current, query, prepared.scale, prepared.offset)
        else:
            transform_against_feature(
                audit, current, basis, query, prepared.scale, prepared.offset
            )
    query[:, idx] = _replacement_value(raw.data[:, idx], cfg)
    return query


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
    worker thread builds feature j+1's removal basis while feature j is
    projected, queried and scored, one basis at a time; the model is only
    called on the caller's thread.
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
    if cfg.standardize:
        prepared = _Prepared(X, *standardize(X))
    else:
        prepared = _Prepared(raw=X, audit=X, offset=None, scale=None)

    # Lookahead: up to _model_width() launched queries are in flight.
    # Feature j+1's query is built while their models answer; when the
    # flight is full its oldest query is collected and scored before j+1's
    # is encoded and launched, so replies are scored in launch order. An
    # in-process model answers inside launch, so its flight holds finished
    # predictions. The worker builds each removal basis one feature ahead,
    # and the error it raises for a feature surfaces at that feature's turn.
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

    def launch(name: str, basis: ProjectionBasis | None) -> None:
        # A function, so that its query is freed on return and one n x k
        # query is alive at a time.
        query = _build_query(prepared, name, basis, cfg)
        if len(flight) == width:
            settle_oldest()
        dropped = 0 if basis is None else basis.dropped_count
        flight.append((name, dropped, model.launch(X.names, query)))

    worker = ThreadPoolExecutor(max_workers=1)
    try:
        ahead = worker.submit(_removal_basis, prepared, X.names[0], cfg)
        for j, name in enumerate(X.names):
            building = ahead
            if j + 1 < X.k:
                ahead = worker.submit(_removal_basis, prepared, X.names[j + 1], cfg)
            try:
                launch(name, building.result())
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
