"""Report document assembly and the JSON / CSV / SVG emitters."""

from __future__ import annotations

import json
from datetime import datetime, timezone
from pathlib import Path

from .dataio import DatasetSchema
from .linalg import DROP_TOL
from .ranking import DependenceReport
from .surrogate import FidelityScore
from .transforms import EXP_CLIP

FORMAT_VERSION = "1"


def aggregate_categorical_groups(
    report: DependenceReport, schema: DatasetSchema
) -> list[dict] | None:
    """Roll per-level deltas up to their categorical source columns: the
    max dependence across each source's one-hot levels."""
    sources = schema.categorical_columns()
    if not sources:
        return None
    groups: list[dict] = []
    for src in sorted(sources):
        levels = [e for e in report.entries if e.name.startswith(f"{src}=")]
        if not levels:
            continue
        scored = [e for e in levels if e.error is None]
        groups.append(
            {
                "source": src,
                "levels": [e.name for e in levels],
                "raw_delta_max": max((e.raw_delta for e in scored), default=None),
                "normalized_max": max((e.normalized for e in scored), default=None),
            }
        )
    return groups or None


def build_document(
    report: DependenceReport,
    *,
    target_policy: str,
    model_descriptor: str,
    data_descriptor: str,
    fidelity: FidelityScore | None = None,
    groups: list[dict] | None = None,
    generated_at: str | None = None,
) -> dict:
    """The ``report.json`` payload: config echo, ranked entries, fidelity
    and warnings. Identical inputs and seed reproduce it exactly; only
    ``generated_at`` varies between runs."""
    if generated_at is None:
        generated_at = datetime.now(timezone.utc).isoformat(timespec="seconds")
    cfg = report.config
    return {
        "format_version": FORMAT_VERSION,
        "generated_at": generated_at,
        "config": {
            "data": data_descriptor,
            "model": model_descriptor,
            "target": target_policy,
            "metric": {"kind": cfg.metric.kind, "threshold": cfg.metric.threshold},
            "transforms": {
                "log": cfg.transforms.enable_log,
                "poly_degrees": list(cfg.transforms.poly_degrees),
                "exp": cfg.transforms.enable_exp,
                "exp_clip": EXP_CLIP,
            },
            "replacement": cfg.replacement,
            "replacement_value": cfg.replacement_value,
            "standardize": cfg.standardize,
            "drop_tol": DROP_TOL,
            "seed": cfg.seed,
        },
        "baseline": report.baseline,
        "metric_kind": report.metric_kind,
        "entries": [
            {
                "name": e.name,
                "raw_delta": e.raw_delta,
                "normalized": e.normalized,
                "dropped_count": e.dropped_count,
                "error": e.error,
            }
            for e in report.entries
        ],
        "surrogate_fidelity": (
            None
            if fidelity is None
            else {
                "kind": fidelity.kind,
                "value": fidelity.value,
                "split_seed": fidelity.split_seed,
                "holdout_fraction": fidelity.holdout_fraction,
                "n_holdout": fidelity.n_holdout,
            }
        ),
        "categorical_groups": groups,
        "warnings": list(report.warnings),
    }


def write_json(doc: dict, path: str | Path) -> Path:
    path = Path(path)
    text = json.dumps(doc, indent=2, allow_nan=False)
    path.write_text(text + "\n", encoding="utf-8")
    return path


def _csv_cell(text: str) -> str:
    """``text`` as one CSV cell: quoted, with inner quotes doubled, when it
    holds a comma, a double quote, CR or LF (RFC 4180)."""
    if any(c in text for c in ',"\r\n'):
        return '"' + text.replace('"', '""') + '"'
    return text


def write_csv(doc: dict, path: str | Path) -> Path:
    lines = ["name,raw_delta,normalized,dropped_count,error"]
    for e in doc["entries"]:
        raw = "" if e["raw_delta"] is None else repr(e["raw_delta"])
        norm = "" if e["normalized"] is None else repr(e["normalized"])
        err = "" if e["error"] is None else _csv_cell(e["error"])
        lines.append(f"{_csv_cell(e['name'])},{raw},{norm},{e['dropped_count']},{err}")
    path = Path(path)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


# SVG geometry: fixed-width canvas, one horizontal bar per scored feature.
_SVG_WIDTH = 640
_LABEL_GUTTER = 190
_BAR_MAX = _SVG_WIDTH - _LABEL_GUTTER - 70
_ROW_H = 26
_TOP = 42


def render_svg(doc: dict) -> str:
    """Horizontal bar chart of normalized scores, longest bar first."""
    entries = [e for e in doc["entries"] if e["error"] is None]
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
        bar_w = max(0.0, (e["normalized"] or 0.0) / 100.0 * _BAR_MAX)
        label = e["name"].replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
        value = f"{e['normalized']:g}"
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


def write_svg(doc: dict, path: str | Path) -> Path:
    path = Path(path)
    path.write_text(render_svg(doc), encoding="utf-8")
    return path
