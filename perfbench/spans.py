"""In-memory span recorder and the self-time arithmetic over its spans.

A span is ``(span_id, parent_id, layer, start, end)`` with
``time.perf_counter`` timestamps.  The parent is the span open in the
caller's context when the span opened; the current span lives in a
:class:`contextvars.ContextVar`, so coroutines and worker threads started
through :func:`asyncio.to_thread` (which copy the context) attach their
spans to the span that caused them.

A span's self time is its duration minus the part of its interval that
its child spans cover.  Children running concurrently in several threads
may overlap; the covered part is the length of their union, so self time
is never negative.
"""

from __future__ import annotations

import contextvars
import itertools
import json
import threading
import time
from collections import defaultdict
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Tuple

#: One finished span: (span_id, parent_id or 0, layer, start, end).
Span = Tuple[int, int, str, float, float]


class LayerTotals:
    """Calls and self time of one layer, summed over its spans."""

    __slots__ = ("calls", "self_s")

    def __init__(self) -> None:
        self.calls = 0
        self.self_s = 0.0


def covered_length(intervals: Iterable[Tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total = 0.0
    cur_start: Optional[float] = None
    cur_end = lo
    for start, end in sorted(intervals):
        start, end = max(start, lo), min(end, hi)
        if end <= start:
            continue
        if cur_start is None or start > cur_end:
            if cur_start is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        elif end > cur_end:
            cur_end = end
    if cur_start is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: Iterable[Span]) -> Dict[str, LayerTotals]:
    """Per-layer calls and self time of a finished span set."""
    spans = list(spans)
    children: Dict[int, List[Tuple[float, float]]] = defaultdict(list)
    for _, parent, _, start, end in spans:
        if parent:
            children[parent].append((start, end))
    totals: Dict[str, LayerTotals] = defaultdict(LayerTotals)
    for span_id, _, layer, start, end in spans:
        entry = totals[layer]
        entry.calls += 1
        entry.self_s += (end - start) - covered_length(children.get(span_id, ()), start, end)
    return dict(totals)


def root_coverage(spans: Iterable[Span]) -> float:
    """Wall time covered by the spans that have no parent."""
    roots = [(start, end) for _, parent, _, start, end in spans if not parent]
    return covered_length(roots, float("-inf"), float("inf"))


class Tracer:
    """Records spans and counters from the wrappers that hold it.

    Spans and counters stay in memory until :meth:`write` dumps them.
    Counter updates take a lock, because campaign jobs report from
    worker threads.
    """

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.counters: Dict[str, float] = defaultdict(float)
        self._ids = itertools.count(1)
        self._current: contextvars.ContextVar[int] = contextvars.ContextVar(
            "perfbench_span", default=0
        )
        self._open_starts: Dict[int, float] = {}
        self._lock = threading.Lock()

    def open(self, layer: str) -> Tuple[int, int, str, contextvars.Token, float]:
        """Start a span in the current context; pass the result to :meth:`close`."""
        span_id = next(self._ids)
        parent = self._current.get()
        token = self._current.set(span_id)
        start = time.perf_counter()
        self._open_starts[span_id] = start
        return span_id, parent, layer, token, start

    def close(self, handle: Tuple[int, int, str, contextvars.Token, float]) -> float:
        """Finish a span opened by :meth:`open`; returns its duration."""
        end = time.perf_counter()
        span_id, parent, layer, token, start = handle
        self._current.reset(token)
        self._open_starts.pop(span_id, None)
        self.spans.append((span_id, parent, layer, start, end))
        return end - start

    def current_start(self) -> Optional[float]:
        """Start time of the span open in the caller's context, if any."""
        return self._open_starts.get(self._current.get())

    def count(self, name: str, amount: float = 1.0) -> None:
        """Add ``amount`` to a named counter."""
        with self._lock:
            self.counters[name] += amount

    def write(self, path: Path, wall_s: float) -> None:
        """Dump every span and counter as one JSON document."""
        path.parent.mkdir(parents=True, exist_ok=True)
        layers = sorted({span[2] for span in self.spans})
        index = {layer: i for i, layer in enumerate(layers)}
        origin = min((span[3] for span in self.spans), default=0.0)
        payload = {
            "fields": ["id", "parent", "layer", "start_s", "end_s"],
            "layers": layers,
            "wall_s": wall_s,
            "counters": dict(self.counters),
            "spans": [
                [sid, parent, index[layer], round(start - origin, 7), round(end - origin, 7)]
                for sid, parent, layer, start, end in self.spans
            ],
        }
        path.write_text(json.dumps(payload, separators=(",", ":")))
