"""Spans for the traced benchmark run, and the self time computed from them.

A span is one timed call across a layer boundary.  Spans are kept in memory
and written out when the benchmark ends; ``parent`` is the index of the
enclosing span in the same operation's list, or ``None`` for its root span,
and ``op`` numbers the operation within the run.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass

# Stages of a circuit run, each recorded as a ``circuit.run.<stage>`` span.
STAGES = ("qft", "add", "dec", "check", "iqft")


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    op: int = 0

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records nested spans for one operation at a time."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else None
        record = Span(name, time.perf_counter(), 0.0, parent)
        self._stack.append(len(self.spans))
        self.spans.append(record)
        try:
            yield record
        finally:
            record.end = time.perf_counter()
            self._stack.pop()


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it that its children cover.

    Child intervals are clipped to the parent and merged before they are
    subtracted, so overlapping or overhanging children are not counted twice.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    out = []
    for i, s in enumerate(spans):
        covered = 0.0
        reach = s.start
        for start, end in sorted(children.get(i, [])):
            start, end = max(start, reach), min(end, s.end)
            if end > start:
                covered += end - start
                reach = end
        out.append(s.duration - covered)
    return out


def totals(spans: list[Span], values: list[float] | None = None) -> dict[str, float]:
    """Sum per span name of ``values`` (durations when not given)."""
    if values is None:
        values = [s.duration for s in spans]
    out: dict[str, float] = {}
    for s, v in zip(spans, values):
        out[s.name] = out.get(s.name, 0.0) + v
    return out
