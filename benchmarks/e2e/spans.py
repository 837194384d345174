"""In-memory spans for the end-to-end benchmark.

The benchmark times the program from outside: every call into a public
function of ``repro`` is wrapped in a span (name, start, end, parent).
Spans stay in memory for the length of a rep and are written out by the
driver when the benchmark ends. A layer's *self time* is its span minus
the part of it that its child spans cover.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Any, Iterator


class Recorder:
    """Collects the spans of one rep; ids are positions in ``spans``."""

    def __init__(self) -> None:
        self.spans: list[dict[str, Any]] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str, **attrs: Any) -> Iterator[dict[str, Any]]:
        record = {"id": len(self.spans), "name": name,
                  "parent": self._open[-1] if self._open else None,
                  "start": time.perf_counter(), "end": None, **attrs}
        self.spans.append(record)
        self._open.append(record["id"])
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._open.pop()


def duration(span: dict[str, Any]) -> float:
    return span["end"] - span["start"]


def self_times(spans: list[dict[str, Any]]) -> dict[str, float]:
    """Self time per span name: duration minus direct children."""
    own = {s["id"]: duration(s) for s in spans}
    for s in spans:
        if s["parent"] in own:
            own[s["parent"]] -= duration(s)
    out: dict[str, float] = {}
    for s in spans:
        out[s["name"]] = out.get(s["name"], 0.0) + own[s["id"]]
    return out


def subtree(spans: list[dict[str, Any]], root: int) -> list[dict[str, Any]]:
    """``root`` and every span below it (spans are in start order, so a
    parent always precedes its children)."""
    keep = {root}
    for s in spans:
        if s["parent"] in keep:
            keep.add(s["id"])
    return [s for s in spans if s["id"] in keep]
