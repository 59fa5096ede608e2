"""Run-time span tracer: wraps each layer's public entry points, no source edits.

``install(recorder)`` replaces the public methods listed in ``_targets()`` with
wrappers that record one :class:`Span` per call — ``{trace_id, span_id,
parent_id, name, layer, start_s, end_s, attrs}`` — and returns a function that
restores the originals.  Spans of one benchmark operation share a trace id:
the client loop opens the root span, nested calls on the same thread parent on
the thread's open span, and calls that hop threads or processes (scatter pool,
batcher dispatcher, server child) find their parent in the query's metadata
under :data:`CONTEXT_KEY`, which the wrappers re-point at themselves before
handing the query on.  A wrapped call with no context at all (a reference
query, a health probe) runs untraced.

Per-test ``find_embedding`` time is *folded* into the enclosing span as
``tests`` / ``busy_s`` / ``matches`` attributes rather than recorded as
~100 spans per query.  Worker processes of the process shard backend cannot
be wrapped; the ``sharding.shard_call`` wrapper instead lays the per-stage
seconds each worker ships back in its wire report out as child spans marked
``source="worker-report"``.

Timestamps are ``time.perf_counter()`` readings (CLOCK_MONOTONIC on Linux, so
spans of the benchmark process and of the server child share one time base);
``write_spans`` subtracts the run's epoch.
"""

from __future__ import annotations

import itertools
import json
import threading
import time
from collections.abc import Callable

#: Metadata key carrying ``{"t": trace_id, "s": parent_span_id}`` across
#: threads and the HTTP hop (JSON-safe on purpose: metadata rides envelopes).
CONTEXT_KEY = "gcbench"


class Span:
    """One timed call into a layer."""

    __slots__ = ("trace_id", "span_id", "parent_id", "name", "layer",
                 "start_s", "end_s", "attrs")

    def __init__(self, trace_id, span_id, parent_id, name, layer, start_s) -> None:
        self.trace_id = trace_id
        self.span_id = span_id
        self.parent_id = parent_id
        self.name = name
        self.layer = layer
        self.start_s = start_s
        self.end_s = start_s
        self.attrs: dict = {}

    @property
    def duration_s(self) -> float:
        return self.end_s - self.start_s

    def to_dict(self, epoch: float = 0.0) -> dict:
        return {
            "trace_id": self.trace_id, "span_id": self.span_id,
            "parent_id": self.parent_id, "name": self.name, "layer": self.layer,
            "start_s": self.start_s - epoch, "end_s": self.end_s - epoch,
            "attrs": self.attrs,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "Span":
        span = cls(payload["trace_id"], payload["span_id"], payload["parent_id"],
                   payload["name"], payload["layer"], payload["start_s"])
        span.end_s = payload["end_s"]
        span.attrs = dict(payload.get("attrs") or {})
        return span


class SpanRecorder:
    """Keeps every finished span in memory; one open-span stack per thread."""

    def __init__(self, prefix: str = "b") -> None:
        #: Distinguishes span ids of different processes ("b" benchmark,
        #: "s" server child), so parent links stay unique when merged.
        self.prefix = prefix
        self._ids = itertools.count(1)
        # list.append and next(count) are single bytecode-level operations
        # under the GIL, so finished spans need no lock of their own
        self._finished: list[Span] = []
        self._local = threading.local()

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self) -> Span | None:
        """The innermost span open on this thread."""
        stack = self._stack()
        return stack[-1] if stack else None

    def open(self, name: str, layer: str, trace_id, parent_id) -> Span:
        span = Span(trace_id, f"{self.prefix}{next(self._ids)}", parent_id,
                    name, layer, time.perf_counter())
        self._stack().append(span)
        return span

    def close(self, span: Span) -> None:
        span.end_s = time.perf_counter()
        stack = self._stack()
        if stack and stack[-1] is span:
            stack.pop()
        self._finished.append(span)

    def add(self, trace_id, parent_id, name: str, layer: str,
            start_s: float, end_s: float, attrs: dict) -> Span:
        """Record a span whose interval was measured elsewhere."""
        span = Span(trace_id, f"{self.prefix}{next(self._ids)}", parent_id,
                    name, layer, start_s)
        span.end_s = end_s
        span.attrs = attrs
        self._finished.append(span)
        return span

    def spans(self) -> list[Span]:
        return list(self._finished)


def write_spans(path, spans: list[Span], epoch: float) -> None:
    """One JSON object per line, times relative to ``epoch``."""
    with open(path, "w", encoding="utf-8") as handle:
        for span in spans:
            handle.write(json.dumps(span.to_dict(epoch)) + "\n")


# ---------------------------------------------------------------------- #
# context carriers
# ---------------------------------------------------------------------- #
def stamp(metadata: dict, trace_id, span_id) -> None:
    """Point a metadata carrier at ``span_id`` (replaces, never mutates)."""
    metadata[CONTEXT_KEY] = {"t": trace_id, "s": span_id}


def _carrier(metadata) -> tuple | None:
    found = metadata.get(CONTEXT_KEY) if isinstance(metadata, dict) else None
    if isinstance(found, dict) and "t" in found:
        return found["t"], found.get("s")
    return None


def _query_metadata(args) -> dict | None:
    """Metadata of the Query/QueryRequest a method received first."""
    subject = args[1] if len(args) > 1 else None
    return getattr(subject, "metadata", None)


def _payload_metadata(args) -> dict | None:
    """Metadata of a raw ``POST /query`` payload (v2 envelope or v1 flat)."""
    payload = args[1] if len(args) > 1 else None
    if not isinstance(payload, dict):
        return None
    body = payload.get("query") if isinstance(payload.get("query"), dict) else payload
    metadata = body.get("metadata")
    return metadata if isinstance(metadata, dict) else None


# ---------------------------------------------------------------------- #
# wrappers
# ---------------------------------------------------------------------- #
def _traced(recorder: SpanRecorder, original: Callable, name: str, layer: str,
            carrier: Callable | None = None, hand_on: bool = False,
            after: Callable | None = None) -> Callable:
    """``original`` wrapped in a span.

    ``carrier(args)`` finds the metadata dict to read a cross-thread parent
    from; with ``hand_on`` the same dict is re-pointed at the new span, so
    whatever thread or process continues the work parents on it.
    ``after(recorder, span, args, result)`` annotates the finished span from
    the return value.
    """

    def wrapper(*args, **kwargs):
        parent = recorder.current()
        metadata = carrier(args) if carrier is not None else None
        if parent is not None:
            trace_id, parent_id = parent.trace_id, parent.span_id
        else:
            found = _carrier(metadata)
            if found is None:
                return original(*args, **kwargs)
            trace_id, parent_id = found
        span = recorder.open(name, layer, trace_id, parent_id)
        if hand_on and metadata is not None:
            stamp(metadata, trace_id, span.span_id)
        try:
            result = original(*args, **kwargs)
        finally:
            recorder.close(span)
        if after is not None:
            after(recorder, span, args, result)
        return result

    wrapper.__wrapped__ = original
    return wrapper


def _folded(recorder: SpanRecorder, original: Callable, guard: threading.local) -> Callable:
    """``find_embedding`` folded into the enclosing span's attributes.

    ``guard`` is shared by every wrapped matcher class, so a matcher that
    delegates to another (``CountingMatcher`` → ``VF2Matcher``) counts once.
    """

    def wrapper(self, query, target):
        span = recorder.current()
        if span is None or getattr(guard, "inside", False):
            return original(self, query, target)
        guard.inside = True
        begun = time.perf_counter()
        try:
            result = original(self, query, target)
        finally:
            guard.inside = False
        attrs = span.attrs
        attrs["tests"] = attrs.get("tests", 0) + 1
        attrs["busy_s"] = attrs.get("busy_s", 0.0) + (time.perf_counter() - begun)
        if result.found:
            attrs["matches"] = attrs.get("matches", 0) + 1
        return result

    wrapper.__wrapped__ = original
    return wrapper


#: Stage name in a worker's wire report → (span name, layer).
_REPORT_STAGES = {
    "filter": ("index.filter", "index"),
    "probe": ("cache.lookup", "cache"),
    "prune": ("runtime.prune", "runtime"),
    "verify": ("methods.verify", "methods"),
    "assemble": ("runtime.assemble", "runtime"),
    "admit": ("cache.admit", "cache"),
}


def _after_shard_call(recorder: SpanRecorder, span: Span, args, report) -> None:
    """Lay a process worker's reported stage seconds out as child spans."""
    span.attrs["shard"] = getattr(args[0], "index", None)
    stages = [(stage, seconds) for stage, seconds in report.stage_seconds.items()
              if stage in _REPORT_STAGES]
    pipeline_s = sum(seconds for _, seconds in stages)
    span.attrs["worker_s"] = pipeline_s
    # the worker ran somewhere inside the call; centre its pipeline there
    cursor = span.start_s + max(0.0, span.duration_s - pipeline_s) / 2
    pipeline = recorder.add(
        span.trace_id, span.span_id, "runtime.pipeline", "runtime",
        cursor, min(span.end_s, cursor + pipeline_s), {"source": "worker-report"},
    )
    tests = {
        "verify": (report.dataset_tests, report.verify_seconds,
                   len(report.verified_answers)),
        "probe": (report.probe_tests, report.probe_seconds,
                  len(report.sub_hit_entries) + len(report.super_hit_entries)),
    }
    for stage, seconds in stages:
        name, layer = _REPORT_STAGES[stage]
        attrs = {"source": "worker-report"}
        if stage in tests:
            count, busy_s, matches = tests[stage]
            attrs.update(tests=count, busy_s=min(busy_s, seconds), matches=matches)
        end = min(pipeline.end_s, cursor + seconds)
        recorder.add(span.trace_id, pipeline.span_id, name, layer,
                     min(cursor, end), end, attrs)
        cursor = end


def _after_sharded_query(recorder: SpanRecorder, span: Span, args, report) -> None:
    span.attrs["merge_s"] = report.stage_seconds.get("merge", 0.0)
    plan = report.query.metadata.get("scatter") or {}
    span.attrs["fanout"] = plan.get("fanout", 0)


def _targets() -> list[tuple]:
    """(owner, attribute, span name, layer, wrapper options) per entry point."""
    from repro.api.remote import RemoteGraphService
    from repro.cache.graph_cache import GraphCache
    from repro.methods.base import MethodM
    from repro.runtime.pipeline import AssembleStage, PruneStage, QueryPipeline
    from repro.runtime.system import GraphCacheSystem
    from repro.server.app import QueryServer
    from repro.server.batcher import RequestBatcher
    from repro.sharding.planner import ScatterPlanner
    from repro.sharding.process_backend import ProcessShardBackend, ProcessShardClient
    from repro.sharding.system import ShardedGraphCacheSystem

    query = dict(carrier=_query_metadata)
    return [
        (MethodM, "build", "index.build", "index", {}),
        (MethodM, "filter_candidates", "index.filter", "index", {}),
        (MethodM, "verify_candidates", "methods.verify", "methods", {}),
        (GraphCache, "lookup", "cache.lookup", "cache", {}),
        (GraphCache, "credit", "cache.credit", "cache", {}),
        (GraphCache, "offer", "cache.offer", "cache", {}),
        (GraphCache, "apply_offer", "cache.apply_offer", "cache", {}),
        (GraphCache, "flush_window", "cache.flush_window", "cache", {}),
        (GraphCacheSystem, "run_query", "runtime.run_query", "runtime", query),
        (QueryPipeline, "run", "runtime.pipeline", "runtime", {}),
        (PruneStage, "run", "runtime.prune", "runtime", {}),
        (AssembleStage, "run", "runtime.assemble", "runtime", {}),
        (ShardedGraphCacheSystem, "run_query", "sharding.run_query", "sharding",
         dict(carrier=_query_metadata, hand_on=True, after=_after_sharded_query)),
        (ScatterPlanner, "plan", "sharding.plan", "sharding", query),
        (ProcessShardClient, "run_query", "sharding.shard_call", "sharding",
         dict(carrier=_query_metadata, after=_after_shard_call)),
        (ProcessShardBackend, "__init__", "sharding.worker_spawn", "sharding", {}),
        (RemoteGraphService, "send", "api.send", "api", {}),
        (QueryServer, "serve_query", "server.serve_query", "server",
         dict(carrier=_payload_metadata, hand_on=True)),
        (RequestBatcher, "submit", "server.submit", "server", {}),
    ]


def _matcher_classes() -> list[type]:
    """Every class that defines its own ``find_embedding``."""
    from repro.isomorphism.base import SubgraphMatcher

    found, pending = [], [SubgraphMatcher]
    while pending:
        cls = pending.pop()
        pending.extend(cls.__subclasses__())
        if cls is not SubgraphMatcher and "find_embedding" in cls.__dict__:
            found.append(cls)
    return found


def install(recorder: SpanRecorder) -> Callable[[], None]:
    """Wrap every target; the returned function restores the originals."""
    patched: list[tuple] = []

    def patch(owner: type, attr: str, wrapper: Callable) -> None:
        patched.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    for owner, attr, name, layer, options in _targets():
        patch(owner, attr, _traced(recorder, owner.__dict__[attr], name, layer, **options))
    guard = threading.local()
    for cls in _matcher_classes():
        patch(cls, "find_embedding", _folded(recorder, cls.__dict__["find_embedding"], guard))

    def uninstall() -> None:
        while patched:
            owner, attr, original = patched.pop()
            setattr(owner, attr, original)

    return uninstall


# ---------------------------------------------------------------------- #
# analysis
# ---------------------------------------------------------------------- #
def self_seconds(spans: list[Span]) -> dict[str, float]:
    """Self time per span id: duration minus the part its children cover."""
    children: dict = {}
    for span in spans:
        children.setdefault(span.parent_id, []).append(span)
    result: dict[str, float] = {}
    for span in spans:
        covered, cursor = 0.0, span.start_s
        for child in sorted(children.get(span.span_id, ()), key=lambda s: s.start_s):
            begin = max(cursor, child.start_s)
            end = min(span.end_s, child.end_s)
            if end > begin:
                covered += end - begin
                cursor = end
        result[span.span_id] = max(0.0, span.duration_s - covered)
    return result


def malformed(spans: list[Span], slack_s: float = 1e-3) -> list[str]:
    """Problems in a span set: missing parents, escaping children, mixed traces.

    ``slack_s`` tolerates clock reads taken on different threads/processes.
    """
    by_id = {span.span_id: span for span in spans}
    problems = []
    for span in spans:
        if span.end_s < span.start_s:
            problems.append(f"{span.span_id} ({span.name}) ends before it starts")
        if span.parent_id is None:
            continue
        parent = by_id.get(span.parent_id)
        if parent is None:
            problems.append(f"{span.span_id} ({span.name}) has no parent {span.parent_id}")
            continue
        if parent.trace_id != span.trace_id:
            problems.append(f"{span.span_id} ({span.name}) is in another trace than its parent")
        if span.start_s < parent.start_s - slack_s or span.end_s > parent.end_s + slack_s:
            problems.append(f"{span.span_id} ({span.name}) escapes its parent {parent.name}")
    return problems
