"""SpanRecorder: a thread-safe bounded ring buffer of finished spans.

One recorder exists per process (:func:`get_recorder`): the coordinator's
holds the full cross-process span trees (worker spans travel back inside the
query response and are re-recorded here), each shard worker's holds its own
local view.  Retention is bounded by *span count* — whole oldest traces are
evicted first, so a surviving trace is always complete.

Completed traces over the slow-query threshold are snapshotted into a
separate **exemplar** buffer together with their scatter plan, and logged
through ``repro.obs.slowquery`` — the slow-query exemplar log the server's
``--slow-query-log`` flag surfaces.

Spans reach the recorder through :class:`SpanScope` — the client, the
server, the scatter and the pipeline each open one around their own work —
and :func:`sampled` is the one sampling decision.
"""

from __future__ import annotations

import logging
import random
import threading
import time
from collections import OrderedDict

from repro.obs.trace import Span, TraceContext, build_tree, new_span_id, new_trace_id, wall_at

#: Default maximum spans retained across all buffered traces.
DEFAULT_BUFFER_SIZE = 512

#: Completed slow traces kept with their full tree + scatter plan.
DEFAULT_MAX_EXEMPLARS = 32

slow_query_logger = logging.getLogger("repro.obs.slowquery")


class _TraceEntry:
    __slots__ = ("spans", "duration_seconds", "completed")

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.duration_seconds: float | None = None
        self.completed = False


class SpanRecorder:
    """Thread-safe span storage with bounded memory and slow-query capture."""

    def __init__(self, buffer_size: int = DEFAULT_BUFFER_SIZE,
                 slow_threshold_seconds: float | None = None,
                 max_exemplars: int = DEFAULT_MAX_EXEMPLARS) -> None:
        self._lock = threading.Lock()
        self._traces: "OrderedDict[str, _TraceEntry]" = OrderedDict()
        self._span_count = 0
        self._evicted_traces = 0
        self.buffer_size = max(1, buffer_size)
        self.slow_threshold_seconds = slow_threshold_seconds
        self.max_exemplars = max(1, max_exemplars)
        self._exemplars: "OrderedDict[str, dict]" = OrderedDict()

    # ------------------------------------------------------------------ #
    # configuration (the server applies GCConfig knobs here)
    # ------------------------------------------------------------------ #
    def configure(self, buffer_size: int | None = None,
                  slow_threshold_seconds: float | None = None) -> None:
        with self._lock:
            if buffer_size is not None:
                self.buffer_size = max(1, buffer_size)
                self._evict_locked()
            if slow_threshold_seconds is not None:
                self.slow_threshold_seconds = slow_threshold_seconds

    # ------------------------------------------------------------------ #
    # recording
    # ------------------------------------------------------------------ #
    def record(self, span: Span) -> None:
        self.record_many([span])

    def record_many(self, spans: list[Span]) -> None:
        if not spans:
            return
        with self._lock:
            for span in spans:
                if not span.trace_id:
                    continue
                entry = self._traces.get(span.trace_id)
                if entry is None:
                    entry = self._traces[span.trace_id] = _TraceEntry()
                entry.spans.append(span)
                self._span_count += 1
                self._traces.move_to_end(span.trace_id)
            self._evict_locked()

    def _evict_locked(self) -> None:
        # evict whole oldest traces: a retained trace is never half a tree
        while self._span_count > self.buffer_size and len(self._traces) > 1:
            _, entry = self._traces.popitem(last=False)
            self._span_count -= len(entry.spans)
            self._evicted_traces += 1

    def complete(self, trace_id: str, duration_seconds: float,
                 scatter: dict | None = None) -> None:
        """Mark a trace finished; capture it as an exemplar when slow."""
        with self._lock:
            entry = self._traces.get(trace_id)
            if entry is not None:
                entry.duration_seconds = duration_seconds
                entry.completed = True
            threshold = self.slow_threshold_seconds
            slow = threshold is not None and duration_seconds >= threshold
            if slow:
                exemplar = {
                    "trace_id": trace_id,
                    "duration_seconds": duration_seconds,
                    "threshold_seconds": threshold,
                    "scatter": scatter,
                    "tree": build_tree(list(entry.spans)) if entry is not None else None,
                }
                self._exemplars[trace_id] = exemplar
                while len(self._exemplars) > self.max_exemplars:
                    self._exemplars.popitem(last=False)
        if slow:
            slow_query_logger.warning(
                "slow query: trace=%s took %.3fs (threshold %.3fs)",
                trace_id, duration_seconds, threshold,
            )

    # ------------------------------------------------------------------ #
    # reading (the /debug/traces surface)
    # ------------------------------------------------------------------ #
    def spans(self, trace_id: str) -> list[Span]:
        with self._lock:
            entry = self._traces.get(trace_id)
            return list(entry.spans) if entry is not None else []

    def tree(self, trace_id: str) -> dict | None:
        spans = self.spans(trace_id)
        if not spans:
            return None
        tree = build_tree(spans)
        with self._lock:
            entry = self._traces.get(trace_id)
            if entry is not None and entry.duration_seconds is not None:
                tree["duration_seconds"] = entry.duration_seconds
                tree["completed"] = entry.completed
        return tree

    def recent(self, count: int = 10) -> list[dict]:
        """The most recently touched trace trees, newest first."""
        with self._lock:
            trace_ids = list(self._traces.keys())[-max(0, count):]
        trees = [self.tree(trace_id) for trace_id in reversed(trace_ids)]
        return [tree for tree in trees if tree is not None]

    def slowest(self, count: int = 10) -> list[dict]:
        """Completed trace trees ordered by duration, slowest first."""
        with self._lock:
            ranked = sorted(
                ((entry.duration_seconds, trace_id)
                 for trace_id, entry in self._traces.items()
                 if entry.duration_seconds is not None),
                reverse=True,
            )[:max(0, count)]
        trees = [self.tree(trace_id) for _, trace_id in ranked]
        return [tree for tree in trees if tree is not None]

    def exemplars(self) -> list[dict]:
        """Slow-query exemplars (full tree + scatter plan), newest first."""
        with self._lock:
            return list(reversed(self._exemplars.values()))

    def stats(self) -> dict:
        with self._lock:
            return {
                "traces": len(self._traces),
                "spans": self._span_count,
                "evicted_traces": self._evicted_traces,
                "exemplars": len(self._exemplars),
                "buffer_size": self.buffer_size,
                "slow_threshold_seconds": self.slow_threshold_seconds,
            }

    def reset(self) -> None:
        with self._lock:
            self._traces.clear()
            self._exemplars.clear()
            self._span_count = 0
            self._evicted_traces = 0


#: The per-process recorder every layer records into (coordinator and each
#: spawned shard worker hold their own).
_recorder = SpanRecorder()


def get_recorder() -> SpanRecorder:
    return _recorder


def configure_recorder(buffer_size: int | None = None,
                       slow_threshold_seconds: float | None = None) -> SpanRecorder:
    _recorder.configure(buffer_size=buffer_size,
                        slow_threshold_seconds=slow_threshold_seconds)
    return _recorder


def sampled(rate: float, rng: random.Random) -> bool:
    """One sampling decision at ``rate`` (``rng`` is only drawn from in between)."""
    return rate >= 1.0 or (rate > 0.0 and rng.random() < rate)


class SpanScope:
    """One open span: the only way a span is made in this package.

    ``context`` is what downstream work parents on.  :meth:`span` places a
    finished child — or, with ``sibling=True``, a span under this scope's
    own parent — at a monotonic offset from the moment the scope opened
    (``started``, a ``time.perf_counter()`` reading).  :meth:`close` records
    the scope's own span beside the given spans in the process recorder.
    Every start is stamped through the one process clock anchor.
    """

    __slots__ = ("name", "parent", "context", "started")

    def __init__(self, name: str, parent_context: TraceContext | None = None,
                 started: float | None = None) -> None:
        self.name = name
        self.parent = parent_context
        trace_id = parent_context.trace_id if parent_context is not None else new_trace_id()
        self.context = TraceContext(trace_id, new_span_id())
        self.started = time.perf_counter() if started is None else started

    def _span(self, span_id: str, name: str, parent: TraceContext | None,
              offset: float, seconds: float, attributes: dict | None) -> Span:
        return Span(self.context.trace_id, span_id, name,
                    parent.span_id if parent is not None else None,
                    wall_at(self.started + offset), seconds, dict(attributes or {}))

    def span(self, name: str, offset: float, seconds: float,
             attributes: dict | None = None, sibling: bool = False) -> Span:
        """A finished child (or sibling) starting ``offset`` seconds in."""
        return self._span(new_span_id(), name, self.parent if sibling else self.context,
                          offset, seconds, attributes)

    def close(self, attributes: dict | None = None, seconds: float | None = None,
              spans=()) -> Span:
        """Record this scope's span (``seconds`` defaults to the time open) and
        ``spans``; returns the scope's own span."""
        if seconds is None:
            seconds = time.perf_counter() - self.started
        own = self._span(self.context.span_id, self.name, self.parent, 0.0, seconds,
                         attributes)
        _recorder.record_many([own, *spans])
        return own
