"""Trace context + spans: the data model of end-to-end distributed tracing.

One query served through the stack yields one *span tree* keyed by a
``trace_id``: client send → server queue wait → batch execution → scatter
plan → per-shard scatter → worker pipeline stages (filter/probe/prune/
verify/assemble/admit) → merge.  The context travels in two shapes:

* **on the wire** — an additive ``"trace"`` section of the request
  envelope (:class:`~repro.api.envelopes.QueryRequest.to_wire`);
* **in process** — a plain JSON-safe dict under ``Query.metadata["trace"]``
  (the :data:`TRACE_KEY` carrier), which survives every hop the metadata
  already makes: batcher → sharded scatter → the loopback envelope into a
  process shard worker.

This module is the data model only.  Spans are made in one place:
:class:`~repro.obs.recorder.SpanScope`, which the client, the server, the
scatter and the pipeline each open around their own work.

Durations are measured with monotonic clocks (``time.perf_counter``); the
wall-clock ``start`` stamp exists only to order spans for display, is
derived from the one process anchor (:func:`wall_at`) and is never
subtracted against another clock.
"""

from __future__ import annotations

import time
import uuid
from dataclasses import dataclass, field

#: Reserved ``Query.metadata`` key carrying the trace context in process.
TRACE_KEY = "trace"

#: One per-process clock anchor pairing a wall-clock reading with the
#: perf_counter reading taken at the same instant.  Every span start is
#: derived from this single pair — wall-clock time is read exactly once per
#: process, so sibling spans whose durations came from ``perf_counter`` can
#: never reorder against each other just because ``time.time()`` was sampled
#: at different moments (NTP steps, coarse wall ticks).
_ANCHOR_WALL = time.time()
_ANCHOR_PERF = time.perf_counter()


def wall_at(perf_time: float) -> float:
    """The wall-clock stamp of a ``time.perf_counter()`` reading.

    Derived from the process-wide anchor, so two stamps differ by exactly
    their monotonic offset — the property span ordering relies on.
    """
    return _ANCHOR_WALL + (perf_time - _ANCHOR_PERF)


def new_trace_id() -> str:
    """A fresh 32-hex trace id."""
    return uuid.uuid4().hex


def new_span_id() -> str:
    """A fresh 16-hex span id."""
    return uuid.uuid4().hex[:16]


@dataclass(frozen=True)
class TraceContext:
    """The propagated identity of one trace: where a child span hangs."""

    trace_id: str
    span_id: str
    sampled: bool = True

    def to_wire(self) -> dict:
        return {"trace_id": self.trace_id, "span_id": self.span_id,
                "sampled": bool(self.sampled)}

    to_carrier = to_wire  # same JSON shape rides in Query.metadata

    @classmethod
    def from_wire(cls, payload: object) -> "TraceContext | None":
        """Lenient parse: anything malformed reads as "no context" (additive
        fields must never turn an otherwise-valid request into an error).
        A ``sampled`` flag that is not a JSON boolean is malformed too: the
        string ``"false"`` must not switch tracing on."""
        if not isinstance(payload, dict):
            return None
        trace_id = payload.get("trace_id")
        span_id = payload.get("span_id")
        sampled = payload.get("sampled", True)
        if not isinstance(trace_id, str) or not trace_id or not isinstance(sampled, bool):
            return None
        if not isinstance(span_id, str) or not span_id:
            span_id = new_span_id()
        return cls(trace_id=trace_id, span_id=span_id, sampled=sampled)


def context_from_carrier(metadata: dict | None) -> TraceContext | None:
    """The sampled :class:`TraceContext` in a metadata carrier, if any."""
    if not isinstance(metadata, dict):
        return None
    context = TraceContext.from_wire(metadata.get(TRACE_KEY))
    if context is None or not context.sampled:
        return None
    return context


@dataclass
class Span:
    """One timed operation inside a trace."""

    trace_id: str
    span_id: str
    name: str
    parent_span_id: str | None = None
    #: Wall-clock UNIX seconds at span start — display ordering only.
    start: float = 0.0
    #: Monotonic-clock duration (never a difference of wall clocks).
    duration_seconds: float = 0.0
    attributes: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        payload = {
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_span_id": self.parent_span_id,
            "name": self.name,
            "start": self.start,
            "duration_seconds": self.duration_seconds,
        }
        if self.attributes:
            payload["attributes"] = dict(self.attributes)
        return payload

    @classmethod
    def from_dict(cls, payload: dict) -> "Span":
        return cls(
            trace_id=str(payload.get("trace_id", "")),
            span_id=str(payload.get("span_id", "")),
            parent_span_id=payload.get("parent_span_id"),
            name=str(payload.get("name", "span")),
            start=float(payload.get("start", 0.0)),
            duration_seconds=float(payload.get("duration_seconds", 0.0)),
            attributes=dict(payload.get("attributes", {}) or {}),
        )


def build_tree(spans: list[Span]) -> dict:
    """Assemble recorded spans into one JSON tree (children by parent id).

    Spans whose parent is unknown (e.g. a client span recorded in another
    process) become roots; multiple roots are wrapped under a synthetic
    node so one trace always renders as one tree.
    """
    by_id = {span.span_id: span for span in spans}
    children: dict[str | None, list[Span]] = {}
    for span in spans:
        parent = span.parent_span_id if span.parent_span_id in by_id else None
        children.setdefault(parent, []).append(span)

    def node(span: Span) -> dict:
        payload = span.to_dict()
        kids = sorted(children.get(span.span_id, []), key=lambda s: (s.start, s.name))
        payload["children"] = [node(kid) for kid in kids]
        return payload

    roots = sorted(children.get(None, []), key=lambda s: (s.start, s.name))
    trace_id = spans[0].trace_id if spans else None
    duration = max((span.duration_seconds for span in roots), default=0.0)
    return {
        "trace_id": trace_id,
        "num_spans": len(spans),
        "duration_seconds": duration,
        "roots": [node(root) for root in roots],
    }
