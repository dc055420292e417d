"""Report document assembly and the JSON / CSV / SVG emitters."""

from __future__ import annotations

import json
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path

from .dataio import DatasetSchema
from .ranking import DependenceReport
from .surrogate import FidelityScore

FORMAT_VERSION = "1"


@dataclass(frozen=True)
class GroupAggregate:
    """Max dependence across the one-hot levels of a categorical source."""

    source: str
    levels: tuple[str, ...]
    raw_delta_max: float | None
    normalized_max: float | None


def aggregate_categorical_groups(
    report: DependenceReport, schema: DatasetSchema
) -> list[GroupAggregate] | None:
    """Roll per-level deltas up to their categorical source columns."""
    sources = schema.categorical_columns()
    if not sources:
        return None
    groups: list[GroupAggregate] = []
    for src in sorted(sources):
        levels = [e for e in report.entries if e.name.startswith(f"{src}=")]
        if not levels:
            continue
        scored = [e for e in levels if e.error is None]
        groups.append(
            GroupAggregate(
                source=src,
                levels=tuple(e.name for e in levels),
                raw_delta_max=max((e.raw_delta for e in scored), default=None),
                normalized_max=max((e.normalized for e in scored), default=None),
            )
        )
    return groups or None


@dataclass(frozen=True)
class ReportDocument:
    """Machine-readable audit record: config echo, ranked entries, fidelity
    and warnings. Identical inputs and seed reproduce the payload exactly;
    only ``generated_at`` varies between runs."""

    report: DependenceReport
    target_policy: str
    model_descriptor: str
    data_descriptor: str
    fidelity: FidelityScore | None = None
    groups: list[GroupAggregate] | None = None
    generated_at: str = ""
    format_version: str = FORMAT_VERSION


def build_document(
    report: DependenceReport,
    *,
    target_policy: str,
    model_descriptor: str,
    data_descriptor: str,
    fidelity: FidelityScore | None = None,
    groups: list[GroupAggregate] | None = None,
    generated_at: str | None = None,
) -> ReportDocument:
    if generated_at is None:
        generated_at = datetime.now(timezone.utc).isoformat(timespec="seconds")
    return ReportDocument(
        report=report,
        target_policy=target_policy,
        model_descriptor=model_descriptor,
        data_descriptor=data_descriptor,
        fidelity=fidelity,
        groups=groups,
        generated_at=generated_at,
    )


def document_to_dict(doc: ReportDocument) -> dict:
    cfg = doc.report.config
    payload = {
        "format_version": doc.format_version,
        "generated_at": doc.generated_at,
        "config": {
            "data": doc.data_descriptor,
            "model": doc.model_descriptor,
            "target": doc.target_policy,
            "metric": {"kind": cfg.metric.kind, "threshold": cfg.metric.threshold},
            "transforms": {
                "log": cfg.transforms.enable_log,
                "poly_degrees": list(cfg.transforms.poly_degrees),
                "exp": cfg.transforms.enable_exp,
                "exp_clip": cfg.transforms.exp_clip,
            },
            "replacement": cfg.replacement,
            "replacement_value": cfg.replacement_value,
            "standardize": cfg.standardize,
            "drop_tol": cfg.drop_tol,
            "seed": cfg.seed,
        },
        "baseline": doc.report.baseline,
        "metric_kind": doc.report.metric_kind,
        "entries": [
            {
                "name": e.name,
                "raw_delta": e.raw_delta,
                "normalized": e.normalized,
                "dropped_count": e.dropped_count,
                "error": e.error,
            }
            for e in doc.report.entries
        ],
        "surrogate_fidelity": (
            None
            if doc.fidelity is None
            else {
                "kind": doc.fidelity.kind,
                "value": doc.fidelity.value,
                "split_seed": doc.fidelity.split_seed,
                "holdout_fraction": doc.fidelity.holdout_fraction,
                "n_holdout": doc.fidelity.n_holdout,
            }
        ),
        "categorical_groups": (
            None
            if doc.groups is None
            else [
                {
                    "source": g.source,
                    "levels": list(g.levels),
                    "raw_delta_max": g.raw_delta_max,
                    "normalized_max": g.normalized_max,
                }
                for g in doc.groups
            ]
        ),
        "warnings": list(doc.report.warnings),
    }
    return payload


def document_to_json(doc: ReportDocument) -> str:
    return json.dumps(document_to_dict(doc), indent=2) + "\n"


def write_json(doc: ReportDocument, path: str | Path) -> Path:
    path = Path(path)
    path.write_text(document_to_json(doc), encoding="utf-8")
    return path


def write_csv(doc: ReportDocument, path: str | Path) -> Path:
    lines = ["name,raw_delta,normalized,dropped_count,error"]
    for e in doc.report.entries:
        raw = "" if e.raw_delta is None else repr(e.raw_delta)
        norm = "" if e.normalized is None else repr(e.normalized)
        err = "" if e.error is None else e.error.replace(",", ";")
        lines.append(f"{e.name},{raw},{norm},{e.dropped_count},{err}")
    path = Path(path)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


# SVG geometry: fixed-width canvas, one horizontal bar per scored feature.
_SVG_WIDTH = 640
_LABEL_GUTTER = 190
_BAR_MAX = _SVG_WIDTH - _LABEL_GUTTER - 70
_ROW_H = 26
_TOP = 42


def render_svg(doc: ReportDocument) -> str:
    """Horizontal bar chart of normalized scores, longest bar first."""
    entries = [e for e in doc.report.entries if e.error is None]
    height = _TOP + _ROW_H * len(entries) + 16
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_SVG_WIDTH}" '
        f'height="{height}" viewBox="0 0 {_SVG_WIDTH} {height}">',
        f'<text x="{_LABEL_GUTTER}" y="22" font-family="sans-serif" '
        f'font-size="15" font-weight="bold">Feature dependence '
        f"(most significant = 100)</text>",
    ]
    for i, e in enumerate(entries):
        y = _TOP + i * _ROW_H
        bar_w = max(0.0, (e.normalized or 0.0) / 100.0 * _BAR_MAX)
        label = e.name.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
        value = f"{e.normalized:g}"
        parts.append(
            f'<text x="{_LABEL_GUTTER - 8}" y="{y + 15}" text-anchor="end" '
            f'font-family="sans-serif" font-size="12">{label}</text>'
        )
        parts.append(
            f'<rect x="{_LABEL_GUTTER}" y="{y}" width="{bar_w:.2f}" '
            f'height="{_ROW_H - 6}" fill="#4878a8"/>'
        )
        parts.append(
            f'<text x="{_LABEL_GUTTER + bar_w + 6:.2f}" y="{y + 15}" '
            f'font-family="sans-serif" font-size="12">{value}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def write_svg(doc: ReportDocument, path: str | Path) -> Path:
    path = Path(path)
    path.write_text(render_svg(doc), encoding="utf-8")
    return path
