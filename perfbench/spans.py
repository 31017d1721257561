"""In-memory spans for the traced run, reduced to per-layer self time.

A span is ``(name, start, end, parent, batch)``: ``parent`` is the index
of the span that caused it (-1 for a root) and ``batch`` ties together
the spans of one call into the program.  Spans are recorded from the
benchmark's own files, around calls into each layer's public functions;
nothing inside the program is instrumented.  They stay in memory while
the run measures and are written out once, at the end.
"""

from __future__ import annotations

import json
import os
import time
from collections import defaultdict
from typing import Callable, Dict, List, Tuple, TypeVar

T = TypeVar("T")


class SpanLog:
    """Append-only span recorder; ``enabled=False`` records nothing."""

    def __init__(self, enabled: bool) -> None:
        self.enabled = enabled
        self.spans: List[Tuple[str, float, float, int, int]] = []
        self._open: List[int] = []

    def call(self, name: str, batch: int, fn: Callable[[], T]) -> T:
        """Run ``fn`` inside a span named ``name``."""
        if not self.enabled:
            return fn()
        parent = self._open[-1] if self._open else -1
        index = len(self.spans)
        self.spans.append((name, 0.0, 0.0, parent, batch))
        self._open.append(index)
        start = time.perf_counter()
        try:
            return fn()
        finally:
            end = time.perf_counter()
            self._open.pop()
            self.spans[index] = (name, start, end, parent, batch)

    def self_times(self) -> Dict[str, float]:
        """Seconds per span name, minus the time its children cover."""
        child_time: Dict[int, float] = defaultdict(float)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        totals: Dict[str, float] = defaultdict(float)
        for index, (name, start, end, _, _) in enumerate(self.spans):
            totals[name] += (end - start) - child_time[index]
        return dict(totals)



def write(logs: List[SpanLog], path: str) -> int:
    """Write every log's spans as JSON lines; returns the span count.

    Each log is one timed span of the run: its index becomes ``span``,
    and parent indices are rebased so they stay valid in the file.
    """
    os.makedirs(os.path.dirname(path), exist_ok=True)
    written = 0
    with open(path, "w", encoding="utf-8") as fp:
        for number, log in enumerate(logs):
            base = written
            for name, start, end, parent, batch in log.spans:
                fp.write(json.dumps({
                    "name": name, "start": start, "end": end,
                    "parent": parent + base if parent >= 0 else -1,
                    "span": number, "batch": batch}))
                fp.write("\n")
                written += 1
    return written
