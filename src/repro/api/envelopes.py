"""Typed request/response envelopes: the one wire format between processes.

This module is the single definition of what travels between a client and a
:class:`~repro.server.app.QueryServer`, and between a coordinator and its
shard workers — every transport (blocking HTTP, in-process) and every
tool (CLI, trace replay, differential harness) speaks these types rather than
ad-hoc JSON shapes.

There is one wire version (``PROTOCOL_VERSION``), and every payload declares
it: requests are ``{"version": 2, "query": {...}, "request_id": ...}``,
success responses nest the result under ``"result"``, and errors carry the
full taxonomy row (``code``/``http_status``/``retryable``/``details``) under
``"error"`` instead of a bare message string, so clients never parse error
text.  A payload that declares no version, or any other version, is malformed
outside input: :func:`require_version` raises :class:`ProtocolError`, which
the serving apps answer as a typed 400 naming the version they speak.

Everything is JSON-safe.  A query response is JSON-native by construction
(ids, counts, flags and finite clock differences); error and metrics
envelopes, which carry arbitrary details and statistics, map infinities to
``None`` via :func:`repro.cache.statistics.json_safe`.  Every envelope
round-trips ``to_wire`` → ``from_wire`` losslessly, property-tested in
``tests/test_api_envelopes.py``.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field
from typing import Union

from repro.cache.statistics import json_safe
from repro.api.taxonomy import (
    TIMEOUT_CODE,
    UNKNOWN_CODE,
    details_for,
    reconstruct,
    rule_for,
)
from repro.errors import GraphCacheError, ProtocolError
from repro.graph.graph import Graph
from repro.obs.trace import TRACE_KEY, TraceContext
from repro.query_model import Query, QueryType

#: The one wire version: what every payload must declare.
PROTOCOL_VERSION = 2


def require_version(payload: object) -> dict:
    """``payload`` itself, once it is a JSON object declaring the wire version."""
    if not isinstance(payload, dict):
        raise ProtocolError(f"payload must be a JSON object, got {type(payload).__name__}")
    version = payload.get("version")
    if type(version) is not int or version != PROTOCOL_VERSION:
        declared = "no protocol version" if version is None else f"protocol version {version!r}"
        raise ProtocolError(
            f"payload declares {declared}; version {PROTOCOL_VERSION} is the only one spoken"
        )
    return payload


# ---------------------------------------------------------------------- #
# requests
# ---------------------------------------------------------------------- #
@dataclass
class QueryRequest:
    """One graph query as a transport-agnostic envelope."""

    graph: Graph
    query_type: QueryType = QueryType.SUBGRAPH
    metadata: dict = field(default_factory=dict)
    #: Optional caller-chosen correlation id, echoed on the response.
    request_id: str | int | None = None
    #: Optional distributed-tracing context; rides as an additive top-level
    #: ``"trace"`` section of the envelope.
    trace: TraceContext | None = None
    #: Optional per-query deadline budget in seconds, measured from server
    #: admission.  The batcher sheds the query (typed ``timeout``/504) once
    #: the budget expires instead of executing dead work.  Additive wire key.
    deadline_seconds: float | None = None
    #: Scheduling priority (higher = more urgent; default 0).  The batcher
    #: orders its queue by priority band, earliest deadline first within a
    #: band.  Additive wire key.
    priority: int = 0

    def __post_init__(self) -> None:
        self.query_type = QueryType.parse(self.query_type)

    @classmethod
    def from_query(cls, query: Query, request_id: str | int | None = None) -> "QueryRequest":
        """Wrap an in-process :class:`Query` (the graph is shared, not copied).

        A trace carrier stamped in ``query.metadata`` is lifted onto the
        envelope's ``trace`` field so it travels in the envelope section of
        the wire format rather than inside user metadata.
        """
        metadata = dict(query.metadata)
        trace = TraceContext.from_wire(metadata.pop(TRACE_KEY, None))
        return cls(graph=query.graph, query_type=query.query_type,
                   metadata=metadata, request_id=request_id, trace=trace)

    def to_query(self) -> Query:
        """A fresh executable :class:`Query` (new query id) for the engine."""
        metadata = dict(self.metadata)
        if self.trace is not None:
            metadata[TRACE_KEY] = self.trace.to_carrier()
        return Query(graph=self.graph, query_type=self.query_type,
                     metadata=metadata)

    def to_wire(self) -> dict:
        """Serialise for the wire."""
        payload: dict = {"version": PROTOCOL_VERSION, "query": {
            "graph": self.graph.to_dict(),
            "query_type": self.query_type.value,
            "metadata": dict(self.metadata),
        }}
        if self.request_id is not None:
            payload["request_id"] = self.request_id
        if self.trace is not None:
            payload["trace"] = self.trace.to_wire()
        if self.deadline_seconds is not None:
            payload["deadline_seconds"] = self.deadline_seconds
        if self.priority:
            payload["priority"] = self.priority
        return payload

    @classmethod
    def from_wire(cls, payload: dict) -> "QueryRequest":
        """Parse a request payload (see :func:`parse_request`)."""
        return parse_request(payload)


def parse_request(payload: object) -> QueryRequest:
    """Parse a request payload; anything malformed is a :class:`ProtocolError`."""
    body = require_version(payload).get("query")
    if not isinstance(body, dict):
        raise ProtocolError("request has no 'query' object")
    request_id = payload.get("request_id")
    if request_id is not None and not isinstance(request_id, (str, int)):
        raise ProtocolError("'request_id' must be a string or integer")
    # lenient by design: a malformed trace section reads as "untraced"
    trace = TraceContext.from_wire(payload.get("trace"))
    deadline_seconds = payload.get("deadline_seconds")
    if deadline_seconds is not None:
        # json.loads reads NaN, Infinity, 1e999 and integers past any float:
        # none of them orders in an EDF heap (NaN compares false both ways)
        if (not isinstance(deadline_seconds, (int, float))
                or isinstance(deadline_seconds, bool)
                or not 0 < deadline_seconds <= sys.float_info.max):
            raise ProtocolError(
                "'deadline_seconds' must be a finite positive number")
        deadline_seconds = float(deadline_seconds)
    priority = payload.get("priority", 0)
    if not isinstance(priority, int) or isinstance(priority, bool):
        raise ProtocolError("'priority' must be an integer")
    if "graph" not in body:
        raise ProtocolError("request has no 'graph' field")
    try:
        graph = Graph.from_dict(body["graph"])
    except Exception as exc:
        raise ProtocolError(f"malformed 'graph' payload: {exc}") from exc
    try:
        query_type = QueryType.parse(body.get("query_type", "subgraph"))
    except ValueError as exc:
        raise ProtocolError(str(exc)) from exc
    metadata = body.get("metadata", {})
    if not isinstance(metadata, dict):
        raise ProtocolError("'metadata' must be a JSON object")
    return QueryRequest(graph=graph, query_type=query_type,
                        metadata=dict(metadata), request_id=request_id,
                        trace=trace, deadline_seconds=deadline_seconds,
                        priority=priority)


def as_request(query: "QueryRequest | Query | Graph",
               query_type: QueryType | str = QueryType.SUBGRAPH) -> QueryRequest:
    """Coerce any of the accepted query spellings into an envelope."""
    if isinstance(query, QueryRequest):
        return query
    if isinstance(query, Query):
        return QueryRequest.from_query(query)
    if isinstance(query, Graph):
        return QueryRequest(graph=query, query_type=QueryType.parse(query_type))
    raise ProtocolError(
        f"cannot build a QueryRequest from {type(query).__name__}; "
        "expected QueryRequest, Query or Graph"
    )


# ---------------------------------------------------------------------- #
# responses
# ---------------------------------------------------------------------- #
@dataclass
class QueryResponse:
    """One successful query answer plus its observability payload."""

    answer: frozenset
    query_id: int | None = None
    query_type: QueryType = QueryType.SUBGRAPH
    #: ``{"exact": bool, "sub": int, "super": int}`` — confirmed cache hits.
    hits: dict = field(default_factory=dict)
    #: ``{"dataset": int, "baseline": int, "probe": int}`` — sub-iso tests.
    tests: dict = field(default_factory=dict)
    stage_seconds: dict = field(default_factory=dict)
    total_seconds: float | None = None
    #: Serving metadata (absent when the query ran in-process).
    queue_seconds: float | None = None
    batch_size: int | None = None
    request_id: str | int | None = None
    #: Trace id of the server-side span tree for this query (additive) —
    #: feed it to ``repro trace <id>`` / ``GET /debug/traces``.
    trace_id: str | None = None

    @classmethod
    def from_report(
        cls,
        report,
        queue_seconds: float | None = None,
        batch_size: int | None = None,
        request_id: str | int | None = None,
    ) -> "QueryResponse":
        """Build from a :class:`~repro.runtime.report.QueryReport`."""
        return cls(
            answer=frozenset(report.answer),
            query_id=report.query.query_id,
            query_type=report.query.query_type,
            hits={
                "exact": report.exact_hit_entry is not None,
                "sub": len(report.sub_hit_entries),
                "super": len(report.super_hit_entries),
            },
            tests={
                "dataset": report.dataset_tests,
                "baseline": report.baseline_tests,
                "probe": report.probe_tests,
            },
            stage_seconds=dict(report.stage_seconds),
            total_seconds=report.total_seconds,
            queue_seconds=queue_seconds,
            batch_size=batch_size,
            request_id=request_id,
        )

    def _body(self) -> dict:
        payload = {
            "answer": sorted(self.answer, key=repr),
            "query_id": self.query_id,
            "query_type": self.query_type.value,
            "hits": dict(self.hits),
            "tests": dict(self.tests),
            "stage_seconds": dict(self.stage_seconds),
            "total_seconds": self.total_seconds,
        }
        server: dict = {}
        if self.queue_seconds is not None:
            server["queue_seconds"] = self.queue_seconds
        if self.batch_size is not None:
            server["batch_size"] = self.batch_size
        if server:
            payload["server"] = server
        return payload

    def to_wire(self) -> dict:
        payload: dict = {"version": PROTOCOL_VERSION, "result": self._body()}
        if self.request_id is not None:
            payload["request_id"] = self.request_id
        if self.trace_id is not None:
            payload["trace"] = {"trace_id": self.trace_id}
        return payload

    @classmethod
    def from_wire(cls, payload: dict) -> "QueryResponse":
        body = require_version(payload).get("result")
        if not isinstance(body, dict) or "answer" not in body:
            raise ProtocolError("response has no 'answer' field")
        server = body.get("server", {}) or {}
        trace = payload.get("trace")
        trace_id = trace.get("trace_id") if isinstance(trace, dict) else None
        return cls(
            answer=frozenset(body["answer"]),
            query_id=body.get("query_id"),
            query_type=QueryType.parse(body.get("query_type", "subgraph")),
            hits=dict(body.get("hits", {})),
            tests=dict(body.get("tests", {})),
            stage_seconds=dict(body.get("stage_seconds", {})),
            total_seconds=body.get("total_seconds"),
            queue_seconds=server.get("queue_seconds"),
            batch_size=server.get("batch_size"),
            request_id=payload.get("request_id"),
            trace_id=trace_id if isinstance(trace_id, str) else None,
        )


# ---------------------------------------------------------------------- #
# errors
# ---------------------------------------------------------------------- #
@dataclass
class ErrorEnvelope:
    """A failed request as a typed, transport-independent envelope."""

    code: str
    message: str
    http_status: int = 500
    retryable: bool = False
    details: dict = field(default_factory=dict)
    request_id: str | int | None = None

    @classmethod
    def from_exception(cls, exc: BaseException,
                       request_id: str | int | None = None) -> "ErrorEnvelope":
        """Classify an exception via the taxonomy table."""
        if isinstance(exc, GraphCacheError):
            rule = rule_for(exc)
            return cls(code=rule.code, message=str(exc),
                       http_status=rule.http_status, retryable=rule.retryable,
                       details=details_for(exc), request_id=request_id)
        return cls(code=UNKNOWN_CODE, message=f"{type(exc).__name__}: {exc}",
                   http_status=500, retryable=False, request_id=request_id)

    @classmethod
    def timeout(cls, message: str,
                request_id: str | int | None = None) -> "ErrorEnvelope":
        """The serving pipeline missed its deadline (HTTP 504, retryable)."""
        return cls(code=TIMEOUT_CODE, message=message, http_status=504,
                   retryable=True, request_id=request_id)

    def to_exception(self) -> GraphCacheError:
        """The typed exception this envelope describes (taxonomy round-trip)."""
        return reconstruct(self.code, self.message, self.details)

    def to_wire(self) -> dict:
        body = {
            "code": self.code,
            "message": self.message,
            "http_status": self.http_status,
            "retryable": self.retryable,
            "details": dict(self.details),
        }
        payload = {"version": PROTOCOL_VERSION, "error": body}
        if self.request_id is not None:
            payload["request_id"] = self.request_id
        return json_safe(payload)

    @classmethod
    def from_wire(cls, payload: dict, http_status: int | None = None) -> "ErrorEnvelope":
        """Parse an error payload (``http_status``: the transport's, if known)."""
        body = require_version(payload).get("error")
        if not isinstance(body, dict) or "message" not in body:
            raise ProtocolError("error payload has no 'error' object")
        return cls(
            code=body.get("code", UNKNOWN_CODE),
            message=body["message"],
            http_status=body.get("http_status", http_status or 500),
            retryable=bool(body.get("retryable", False)),
            details=dict(body.get("details", {})),
            request_id=payload.get("request_id"),
        )


def parse_response(
    payload: dict, http_status: int | None = None
) -> Union[QueryResponse, ErrorEnvelope]:
    """Parse a response payload into the success or the error envelope."""
    if "error" in require_version(payload):
        return ErrorEnvelope.from_wire(payload, http_status=http_status)
    return QueryResponse.from_wire(payload)


# ---------------------------------------------------------------------- #
# batches and metrics
# ---------------------------------------------------------------------- #
@dataclass
class BatchResult:
    """Per-item outcomes of one batch: a response or an error per position."""

    items: list  # list[QueryResponse | ErrorEnvelope]

    def __len__(self) -> int:
        return len(self.items)

    def __iter__(self):
        return iter(self.items)

    def __getitem__(self, index: int):
        return self.items[index]

    @property
    def responses(self) -> list[QueryResponse]:
        return [item for item in self.items if isinstance(item, QueryResponse)]

    @property
    def failures(self) -> list[ErrorEnvelope]:
        return [item for item in self.items if isinstance(item, ErrorEnvelope)]

    @property
    def ok(self) -> bool:
        """True when every item in the batch succeeded."""
        return not self.failures

    def answers(self) -> list[frozenset | None]:
        """Answer set per position (``None`` where the item failed)."""
        return [
            item.answer if isinstance(item, QueryResponse) else None
            for item in self.items
        ]

    def raise_first(self) -> "BatchResult":
        """Raise the first failure's typed exception; returns self when ok."""
        for item in self.items:
            if isinstance(item, ErrorEnvelope):
                raise item.to_exception()
        return self


@dataclass
class MetricsSnapshot:
    """The ``/metrics`` surface as a typed envelope (one point in time).

    ``statistics`` is the :class:`StatisticsManager` snapshot (merged +
    per-shard aggregates for sharded systems); the optional sections mirror
    what the serving layer exposes for each system shape.  Every section has
    a fixed shape, so the snapshot's size does not grow with the number of
    queries served.
    """

    statistics: dict = field(default_factory=dict)
    cache: dict | None = None
    shards: list | None = None
    router: dict | None = None
    scatter: dict | None = None

    @classmethod
    def from_system(cls, system) -> "MetricsSnapshot":
        """Snapshot a live system (single or sharded facade)."""
        snapshot = cls(statistics=system.statistics.to_dict())
        describe_shards = getattr(system, "describe_shards", None)
        if describe_shards is not None:
            snapshot.shards = json_safe(describe_shards())
            snapshot.router = json_safe(system.router.describe())
            snapshot.scatter = json_safe(system.scatter_metrics())
        elif system.cache is not None:
            snapshot.cache = json_safe(system.cache.describe())
        return snapshot

    @property
    def aggregate(self) -> dict:
        """The merged aggregate statistics block."""
        return self.statistics.get("aggregate", {})

    def to_wire(self) -> dict:
        payload: dict = {"statistics": self.statistics}
        for key in ("cache", "shards", "router", "scatter"):
            value = getattr(self, key)
            if value is not None:
                payload[key] = value
        return json_safe(payload)

    @classmethod
    def from_wire(cls, payload: dict) -> "MetricsSnapshot":
        if not isinstance(payload, dict) or "statistics" not in payload:
            raise ProtocolError("metrics payload has no 'statistics' section")
        return cls(
            statistics=payload["statistics"],
            cache=payload.get("cache"),
            shards=payload.get("shards"),
            router=payload.get("router"),
            scatter=payload.get("scatter"),
        )
