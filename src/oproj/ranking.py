"""Per-feature audit loop: transform, re-query, measure, rank.

For each audited feature the engine builds a removal subspace (the feature
plus its enabled nonlinear transforms), projects every other column onto its
orthogonal complement, re-inserts the audited column as a constant so the
model still sees k columns in the original order, queries the model once,
and records |baseline - new| as that feature's dependence.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .adapters import ModelHandle, capture_outputs
from .dataio import AffineMap, standardize
from .errors import (
    AdapterError,
    AuditFailedError,
    DegenerateFeatureError,
    DegenerateSubspaceError,
    DimensionError,
)
from .linalg import (
    FeatureMatrix,
    orthonormalize,
    transform_against_feature,
    transform_against_vector,
)
from .transforms import TransformSet, build_removal_candidates

REPLACEMENT_POLICIES = ("mean", "zero", "constant")
METRIC_KINDS = ("mse", "accuracy")


@dataclass(frozen=True)
class PerformanceMetric:
    """Mean squared error for regression scores, accuracy for classification.

    ``threshold`` binarizes scores (both predictions and targets) and is
    only consulted for accuracy.
    """

    kind: str = "mse"
    threshold: float = 0.5

    def __post_init__(self):
        if self.kind not in METRIC_KINDS:
            raise ValueError(f"metric kind must be one of {METRIC_KINDS}")
        if self.kind == "accuracy" and not (0.0 < self.threshold < 1.0):
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
    drop_tol: float = 1e-10
    check_repeatability: bool = False

    def __post_init__(self):
        if self.replacement not in REPLACEMENT_POLICIES:
            raise ValueError(
                f"replacement must be one of {REPLACEMENT_POLICIES}, "
                f"got '{self.replacement}'"
            )


def compute_metric(pred, y, metric: PerformanceMetric) -> float:
    """MSE = mean((pred-y)^2); accuracy = fraction of threshold-binarized
    agreement."""
    pred = np.asarray(pred, dtype=np.float64).reshape(-1)
    y = np.asarray(y, dtype=np.float64).reshape(-1)
    if pred.shape[0] != y.shape[0]:
        raise DimensionError(
            f"prediction length {pred.shape[0]} vs target length {y.shape[0]}"
        )
    if pred.shape[0] == 0:
        raise DimensionError("cannot score zero samples")
    if metric.kind == "mse":
        return float(np.mean((pred - y) ** 2))
    return float(np.mean((pred >= metric.threshold) == (y >= metric.threshold)))


@dataclass(frozen=True)
class AuditOutcome:
    """Result of auditing one feature."""

    name: str
    raw_delta: float
    b_new: float
    dropped_count: int


@dataclass(frozen=True)
class FeatureResult:
    """One report row. ``raw_delta``/``normalized`` are None when the
    feature's audit errored; ``error`` then carries the reason."""

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
    metric_kind: str
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
    """Original matrix plus the (possibly standardized) projection space."""

    raw: FeatureMatrix
    audit: FeatureMatrix
    maps: list[AffineMap] | None


def _prepare(X: FeatureMatrix, cfg: AuditConfig) -> _Prepared:
    if cfg.standardize:
        std, maps = standardize(X)
        return _Prepared(raw=X, audit=std, maps=maps)
    return _Prepared(raw=X, audit=X, maps=None)


def _replacement_value(raw_column: np.ndarray, cfg: AuditConfig) -> float:
    if cfg.replacement == "mean":
        return float(np.mean(raw_column))
    if cfg.replacement == "zero":
        return 0.0
    return float(cfg.replacement_value)


def _assemble_query(
    prepared: _Prepared, current_idx: int, projected: FeatureMatrix | None, cfg: AuditConfig
) -> FeatureMatrix:
    """Rebuild a full k-column matrix in the model's native scale: projected
    columns mapped back through their affine maps, the audited column a
    constant carrying no information."""
    raw = prepared.raw
    query = np.empty((raw.n, raw.k), order="F")
    query[:, current_idx] = _replacement_value(raw.data[:, current_idx], cfg)
    if projected is not None:
        rest = [i for i in range(raw.k) if i != current_idx]
        for col, i in enumerate(rest):
            pcol = projected.data[:, col]
            query[:, i] = pcol if prepared.maps is None else prepared.maps[i].invert(pcol)
    return FeatureMatrix._adopt(raw.names, query)


@dataclass(frozen=True)
class _InFlight:
    """A feature's launched query, waiting to be collected and scored."""

    name: str
    dropped_count: int
    running: object


def _named(exc: AdapterError, current: str) -> AdapterError:
    return type(exc)(f"feature '{current}': {exc}", row=exc.row)


def _launch_query(
    model: ModelHandle,
    prepared: _Prepared,
    current: str,
    cfg: AuditConfig,
    finish_previous: Callable[[], None],
) -> _InFlight:
    """Build and prepare the query that removes ``current``, call
    ``finish_previous``, then launch the query.

    A subprocess model answers the previous query while this one is built
    and encoded. The candidates, basis and projection stay alive until the
    launch, so an in-process model, which answers there, allocates in the
    same order as a build-then-predict loop.
    """
    idx = prepared.audit.index(current)
    if np.ptp(prepared.audit.data[:, idx]) == 0.0:
        raise DegenerateFeatureError(
            f"feature '{current}' is constant and cannot be audited"
        )

    dropped = 0
    if prepared.audit.k == 1:
        # Nothing else to project; the query collapses to the constant column.
        projected = None
    else:
        try:
            candidates = build_removal_candidates(prepared.audit, current, cfg.transforms)
            if len(candidates) == 1:
                # Pure linear removal: identical arithmetic to projecting
                # against the raw vector, so transform-free runs reduce
                # exactly to the single-vector algorithm.
                projected = transform_against_vector(prepared.audit, current, candidates[0])
            else:
                basis = orthonormalize(candidates, cfg.drop_tol)
                dropped = basis.dropped_count
                projected = transform_against_feature(prepared.audit, current, basis)
        except (DegenerateFeatureError, DegenerateSubspaceError) as exc:
            raise type(exc)(f"feature '{current}': {exc}") from exc

    query = _assemble_query(prepared, idx, projected, cfg)
    try:
        encoded = model.prepare(query)
        finish_previous()
        return _InFlight(current, dropped, model.launch(encoded))
    except AdapterError as exc:
        raise _named(exc, current) from exc


def _score(
    model: ModelHandle, flight: _InFlight, y: np.ndarray, cfg: AuditConfig, baseline: float
) -> AuditOutcome:
    """Collect a launched query and measure how far the metric moved."""
    try:
        pred = model.collect(flight.running)
    except AdapterError as exc:
        raise _named(exc, flight.name) from exc
    b_new = compute_metric(pred, y, cfg.metric)
    return AuditOutcome(
        name=flight.name,
        raw_delta=abs(baseline - b_new),
        b_new=b_new,
        dropped_count=flight.dropped_count,
    )


def audit_feature(
    model: ModelHandle,
    X: FeatureMatrix,
    y,
    current: str,
    cfg: AuditConfig,
    baseline: float,
) -> AuditOutcome:
    """Audit a single feature against an already-computed baseline.

    Issues exactly one batch query. Degenerate-feature and model errors are
    raised with the feature name attached.
    """
    y = np.asarray(y, dtype=np.float64).reshape(-1)
    flight = _launch_query(model, _prepare(X, cfg), current, cfg, lambda: None)
    return _score(model, flight, y, cfg, baseline)


def _normalize_entries(
    outcomes: list[AuditOutcome], errors: dict[str, str]
) -> tuple[FeatureResult, ...]:
    max_raw = max((o.raw_delta for o in outcomes), default=0.0)
    scored = [
        FeatureResult(
            name=o.name,
            raw_delta=o.raw_delta,
            normalized=100.0 * (o.raw_delta / max_raw) if max_raw > 0.0 else 0.0,
            dropped_count=o.dropped_count,
        )
        for o in outcomes
    ]
    scored.sort(key=lambda e: (-e.raw_delta, e.name))
    errored = [
        FeatureResult(name=n, raw_delta=None, normalized=None, dropped_count=0, error=msg)
        for n, msg in sorted(errors.items())
    ]
    return tuple(scored + errored)


def rank_all(
    model: ModelHandle,
    X: FeatureMatrix,
    cfg: AuditConfig,
    y=None,
) -> DependenceReport:
    """Audit every feature and assemble the ranked dependence report.

    When ``y`` is None the target is the model's own captured output on the
    original matrix, so the baseline is perfect by construction and deltas
    measure how far the model moves when a feature's footprint is removed.
    The whole run issues exactly k+1 batch queries (one capture plus one per
    feature); per-feature failures become flagged entries rather than
    aborting the run.
    """
    captured, warning = capture_outputs(
        model, X, check_repeatability=cfg.check_repeatability
    )
    target = captured if y is None else np.asarray(y, dtype=np.float64).reshape(-1)
    if target.shape[0] != X.n:
        raise DimensionError(
            f"target length {target.shape[0]} does not match {X.n} rows"
        )
    baseline = compute_metric(captured, target, cfg.metric)
    prepared = _prepare(X, cfg)

    # One query of lookahead: feature j+1's query is built and encoded
    # while the model answers feature j's, and launched only once j's reply
    # is collected, so one model runs at a time.
    outcomes: list[AuditOutcome] = []
    errors: dict[str, str] = {}
    flight: _InFlight | None = None

    def finish_previous() -> None:
        nonlocal flight
        if flight is not None:
            try:
                outcomes.append(_score(model, flight, target, cfg, baseline))
            except AdapterError as exc:
                errors[flight.name] = str(exc)
            flight = None

    try:
        for name in X.names:
            try:
                flight = _launch_query(model, prepared, name, cfg, finish_previous)
            except (DegenerateFeatureError, DegenerateSubspaceError, AdapterError) as exc:
                errors[name] = str(exc)
        finish_previous()
    finally:
        if flight is not None:
            model.abort(flight.running)
    if not outcomes:
        raise AuditFailedError(
            f"all {X.k} feature audits failed: {sorted(errors.values())}"
        )
    warnings = (warning,) if warning else ()
    return DependenceReport(
        baseline=baseline,
        metric_kind=cfg.metric.kind,
        entries=_normalize_entries(outcomes, errors),
        config=cfg,
        warnings=warnings,
        target=target,
    )
