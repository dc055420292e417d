"""In-memory span recorder: nested wall-clock spans plus named counters.

One ``Recorder`` holds the spans of one audit, so every span it records
shares that audit's identifier. Spans stay in memory until ``dump`` hands
them out at the end of the audit. The module depends on nothing outside the
standard library, so it can move into the audited package unchanged.
"""

from __future__ import annotations

import time
from contextlib import contextmanager


class Recorder:
    """Spans (name, start, end, parent) and counters for one audit."""

    def __init__(self, audit_id: str = "0"):
        self.audit_id = audit_id
        self.spans: list[dict] = []
        self.counts: dict[str, float] = {}
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        record = {
            "id": len(self.spans),
            "parent": self._open[-1] if self._open else None,
            "name": name,
            "start": time.perf_counter(),
            "end": None,
        }
        self.spans.append(record)
        self._open.append(record["id"])
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._open.pop()

    def count(self, name: str, amount: float = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    def dump(self) -> dict:
        return {"audit": self.audit_id, "spans": self.spans, "counts": self.counts}


def summarize(dump: dict) -> tuple[dict[str, float], dict[str, float]]:
    """Total and self seconds per span name.

    Self time is a span's duration minus the time its direct children
    cover; children of one span never overlap, because spans are recorded
    on one thread.
    """
    spans = dump["spans"]
    covered = [0.0] * len(spans)
    for s in spans:
        if s["parent"] is not None:
            covered[s["parent"]] += s["end"] - s["start"]
    total: dict[str, float] = {}
    self_time: dict[str, float] = {}
    for s in spans:
        duration = s["end"] - s["start"]
        total[s["name"]] = total.get(s["name"], 0.0) + duration
        self_time[s["name"]] = (
            self_time.get(s["name"], 0.0) + duration - covered[s["id"]]
        )
    return total, self_time
