"""In-memory spans recorded by the benchmark around its calls into bellodds.

A span is named <module>.<function> after the public function the benchmark
called, with a start, an end, the span that encloses it, and the number of
calls it covers (probes time a loop of many calls in one span).  Spans stay
in memory and are written out once, when the run ends.
"""

from __future__ import annotations

import contextlib
import json
import time
from collections import defaultdict
from dataclasses import asdict, dataclass
from pathlib import Path


@dataclass
class Span:
    span_id: int
    parent: int | None
    name: str
    start_ns: int
    end_ns: int
    calls: int

    @property
    def duration_ns(self) -> int:
        return self.end_ns - self.start_ns


class Tracer:
    """Records spans while enabled; while disabled, span() costs one call."""

    def __init__(self) -> None:
        self.enabled = False
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._off = contextlib.nullcontext()

    def span(self, name: str, calls: int = 1):
        if not self.enabled:
            return self._off
        return self._record(name, calls)

    @contextlib.contextmanager
    def _record(self, name: str, calls: int):
        span = Span(len(self.spans), self._stack[-1] if self._stack else None, name, 0, 0, calls)
        self.spans.append(span)
        self._stack.append(span.span_id)
        span.start_ns = time.perf_counter_ns()
        try:
            yield span
        finally:
            span.end_ns = time.perf_counter_ns()
            self._stack.pop()

    def self_times(self) -> dict[str, dict]:
        """Per span name: spans, calls, total and self time in ms.  Self time
        is a span's duration minus the time its child spans cover."""
        spans = self.spans
        child_ns: dict[int, int] = defaultdict(int)
        for s in spans:
            if s.parent is not None:
                child_ns[s.parent] += s.duration_ns
        table: dict[str, dict] = defaultdict(lambda: {"spans": 0, "calls": 0, "total_ms": 0.0, "self_ms": 0.0})
        for s in spans:
            row = table[s.name]
            row["spans"] += 1
            row["calls"] += s.calls
            row["total_ms"] += s.duration_ns / 1e6
            row["self_ms"] += (s.duration_ns - child_ns[s.span_id]) / 1e6
        return dict(table)

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as fh:
            for s in self.spans:
                fh.write(json.dumps(asdict(s)) + "\n")
