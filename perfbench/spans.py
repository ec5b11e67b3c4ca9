"""In-memory span recorder for the traced benchmark run.

A span records one call at a layer boundary: its name (``layer.function``),
start and end on the ``time.perf_counter`` clock, the span that was open when
it started, the phase it belongs to (``workload`` or ``probe``) and optional
tags.  Spans stay in memory and are aggregated when the run ends.

Spans come only from the benchmark's own files: the workloads wrap each public
call they make, and :func:`patched` temporarily replaces the names one graff
module imported from another, so calls that cross a layer boundary inside the
library are recorded too.  Nothing is patched in an untraced run.
"""

from __future__ import annotations

import contextlib
import functools
import statistics
import time
from dataclasses import dataclass, field

__all__ = ["Span", "Tracer", "patched", "self_times", "union_length"]


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int
    phase: str
    tags: dict = field(default_factory=dict)

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans; ``call`` runs a function inside a new span."""

    def __init__(self):
        self.spans: list[Span] = []
        self.phase = "workload"
        self._open: list[int] = []

    def call(self, name, fn, *args, tags=None, **kwargs):
        span = Span(name, 0.0, 0.0, self._open[-1] if self._open else -1, self.phase, tags or {})
        self._open.append(len(self.spans))
        self.spans.append(span)
        span.start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        except BaseException as exc:
            span.tags["error"] = type(exc).__name__
            raise
        finally:
            span.end = time.perf_counter()
            self._open.pop()

    def wrap(self, name, fn, tag=None):
        """``fn`` recorded as span ``name``; ``tag(*args)`` gives its tags."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(name, fn, *args, tags=tag(*args) if tag else None, **kwargs)

        return traced

    def adopt(self, parent: int, child_spans: list[dict]) -> None:
        """Attach spans recorded by a child process under span ``parent``.

        Child times are relative to the child's own start; they are placed
        from the parent span's start, which keeps every interval inside it.
        """
        base = len(self.spans)
        origin = self.spans[parent].start
        for record in child_spans:
            up = record["parent"]
            self.spans.append(Span(
                record["name"], origin + record["start"], origin + record["end"],
                parent if up < 0 else base + up, self.spans[parent].phase, record.get("tags", {}),
            ))

    def select(self, name: str, phase: str | None = None) -> list[Span]:
        return [s for s in self.spans if s.name == name and (phase is None or s.phase == phase)]

    def pick(self, name: str, where=None) -> list[Span]:
        """Completed spans of ``name`` (filtered by ``where``) from the workload,
        or from the probe if the workload made none."""
        for phase in ("workload", "probe"):
            spans = [
                s for s in self.select(name, phase)
                if "error" not in s.tags and (where is None or where(s))
            ]
            if spans:
                return spans
        return []

    def median(self, name: str, scale: float = 1e6, per: str | None = None, where=None) -> float:
        """Median duration per call (``per``: divided by that tag) in ``1/scale`` seconds."""
        spans = self.pick(name, where)
        if not spans:
            return 0.0
        return scale * statistics.median(s.duration / (s.tags[per] if per else 1) for s in spans)

    def tag_median(self, name: str, tag: str) -> float:
        spans = self.pick(name)
        return float(statistics.median(s.tags[tag] for s in spans)) if spans else 0.0

    def to_records(self) -> list[dict]:
        return [
            {"name": s.name, "start": s.start, "end": s.end, "parent": s.parent, "tags": s.tags}
            for s in self.spans
        ]


def union_length(intervals) -> float:
    """Total length covered by a set of (start, end) intervals."""
    total, reach = 0.0, float("-inf")
    for start, end in sorted(intervals):
        if end <= reach:
            continue
        total += end - max(start, reach)
        reach = end
    return total


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it covered by its direct children."""
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span.parent >= 0:
            children.setdefault(span.parent, []).append((span.start, span.end))
    result = []
    for index, span in enumerate(spans):
        clipped = [
            (max(a, span.start), min(b, span.end))
            for a, b in children.get(index, ())
            if min(b, span.end) > max(a, span.start)
        ]
        result.append(span.duration - union_length(clipped))
    return result


@contextlib.contextmanager
def patched(tracer: Tracer, targets):
    """Record spans around module attributes for the duration of the block.

    ``targets`` holds ``(owner, attribute, span_name, tag)`` tuples; ``owner``
    is a module or class.  Originals are restored on exit.
    """
    saved = []
    try:
        for owner, attr, name, tag in targets:
            original = getattr(owner, attr)
            saved.append((owner, attr, original))
            setattr(owner, attr, tracer.wrap(name, original, tag))
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)
