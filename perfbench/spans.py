"""Span recorder and self-time arithmetic for the benchmark's traced runs.

A span is one timed call at a layer boundary: its name, the per-layer
metric its self time is booked to, start and end on ``time.perf_counter``
(``CLOCK_MONOTONIC`` on Linux, so spans from the server process and the
traffic generator share one time axis), its parent, its thread and an
optional request id.  Spans are kept in memory and written out once, at
the end of a run.

Two self-time views are computed from a list of spans:

* :func:`self_times` — the classic definition: a span's duration minus the
  part of it covered by its children (on any thread).
* :func:`attribute_wall` — the same quantity made to add up under
  concurrency: every instant of a window is shared equally among the spans
  open at that instant that have no open child, so per-layer times plus the
  instants with no span at all (``unattributed``) sum to the window's wall
  time.  On one thread it equals :func:`self_times`.

Both take the parent links of the spans plus optional extra ``links``
(parent, child) — a batch computed on the batcher thread is a child of every
request that waited for it.  This module imports nothing from ``repro``.
"""

from __future__ import annotations

import json
import threading
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple


@dataclass
class Span:
    """One timed call."""

    name: str
    layer: str
    start: float
    end: float = 0.0
    parent: Optional[int] = None
    thread: int = 0
    request: Optional[str] = None
    attrs: Dict[str, object] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class SpanRecorder:
    """Per-thread span stacks over one in-memory span list.

    An entry point that fans work out to a thread pool (``Lab.warm``,
    ``DeliveryEngine.run``) opens its span with ``pool`` set to the pool's
    thread-name prefix; a call made on a thread of that name whose stack is
    empty is then parented to it.
    """

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: List[Span] = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self._pools: List[Tuple[str, int]] = []

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(
        self,
        name: str,
        layer: str,
        request: Optional[str] = None,
        pool: Optional[str] = None,
        **attrs,
    ) -> Iterator[Span]:
        stack = self._stack()
        with self._lock:
            if stack:
                parent = stack[-1]
            else:
                thread = threading.current_thread().name
                owners = [i for prefix, i in self._pools if thread.startswith(prefix)]
                parent = owners[-1] if owners else None
            record = Span(
                name=name,
                layer=layer,
                start=self.clock(),
                parent=parent,
                thread=threading.get_ident(),
                request=request,
                attrs=dict(attrs),
            )
            index = len(self.spans)
            self.spans.append(record)
            if pool is not None:
                self._pools.append((pool, index))
        stack.append(index)
        try:
            yield record
        finally:
            record.end = self.clock()
            stack.pop()
            if pool is not None:
                with self._lock:
                    self._pools.remove((pool, index))

    def dump(self, path: str) -> None:
        """Write every span as JSON (once, at the end of a run)."""
        with open(path, "w", encoding="utf-8") as handle:
            json.dump([asdict(s) for s in self.spans], handle)


def load_spans(path: str) -> List[Span]:
    with open(path, "r", encoding="utf-8") as handle:
        return [Span(**row) for row in json.load(handle)]


def _children(
    spans: Sequence[Span], links: Iterable[Tuple[int, int]] = ()
) -> Dict[int, List[int]]:
    children: Dict[int, List[int]] = {}
    for index, record in enumerate(spans):
        if record.parent is not None:
            children.setdefault(record.parent, []).append(index)
    for parent, child in links:
        children.setdefault(parent, []).append(child)
    return children


def _covered(intervals: List[Tuple[float, float]]) -> float:
    """Length of the union of ``intervals``."""
    total = 0.0
    reach = float("-inf")
    for start, end in sorted(intervals):
        if end <= reach:
            continue
        total += end - max(start, reach)
        reach = end
    return total


def self_times(
    spans: Sequence[Span], links: Iterable[Tuple[int, int]] = ()
) -> List[float]:
    """Each span's duration minus the part its children cover."""
    children = _children(spans, links)
    result = []
    for index, record in enumerate(spans):
        clipped = [
            (max(spans[c].start, record.start), min(spans[c].end, record.end))
            for c in children.get(index, ())
        ]
        covered = _covered([(a, b) for a, b in clipped if b > a])
        result.append(record.duration - covered)
    return result


def attribute_wall(
    spans: Sequence[Span],
    start: float,
    end: float,
    links: Iterable[Tuple[int, int]] = (),
) -> Tuple[Dict[str, float], float]:
    """Share the wall time of ``[start, end]`` among the busiest spans.

    Returns ``(seconds per layer, unattributed seconds)``; the two add up to
    ``end - start``.  At each instant the time goes, in equal parts, to the
    open spans that have no open child; an instant with no open span is
    unattributed.
    """
    parents: Dict[int, List[int]] = {}
    for parent, children in _children(spans, links).items():
        for child in children:
            parents.setdefault(child, []).append(parent)
    events: List[Tuple[float, int, int]] = []
    for index, record in enumerate(spans):
        lo, hi = max(record.start, start), min(record.end, end)
        if hi > lo:
            # Closes sort before opens at the same instant.
            events.append((lo, 1, index))
            events.append((hi, 0, index))
    events.sort()
    layers: Dict[str, float] = {}
    unattributed = 0.0
    open_children: Dict[int, int] = {}
    live: set = set()
    cursor = start
    for when, opening, index in events:
        if when > cursor:
            leaves = [i for i in live if not open_children.get(i)]
            span_s = when - cursor
            if leaves:
                share = span_s / len(leaves)
                for leaf in leaves:
                    layer = spans[leaf].layer
                    layers[layer] = layers.get(layer, 0.0) + share
            else:
                unattributed += span_s
            cursor = when
        step = 1 if opening else -1
        if opening:
            live.add(index)
        else:
            live.discard(index)
        for parent in parents.get(index, ()):
            open_children[parent] = open_children.get(parent, 0) + step
    unattributed += max(0.0, end - cursor)
    return layers, unattributed


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in 0..100) of a non-empty sample."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of an empty sample")
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(min(rank, len(ordered))) - 1]


__all__ = [
    "Span",
    "SpanRecorder",
    "load_spans",
    "self_times",
    "attribute_wall",
    "percentile",
]
