"""The unified GraphService API: typed envelopes, one boundary, two backends.

This package is the product-shaped SDK over the whole serving stack.  Every
execution mode — direct, cached, sharded, served over HTTP — is reached
through one :class:`GraphService` surface speaking the
:mod:`~repro.api.envelopes` types:

>>> from repro.api import LocalGraphService, QueryRequest
>>> service = LocalGraphService(dataset, GCConfig(num_shards=2))  # doctest: +SKIP
>>> response = service.run(QueryRequest(graph=pattern))           # doctest: +SKIP
>>> sorted(response.answer)                                       # doctest: +SKIP

Swap ``LocalGraphService`` for :class:`RemoteGraphService` (blocking HTTP,
one keep-alive connection per calling thread) without touching the calling
code — same envelopes, same typed errors.
"""

from repro.api.envelopes import (
    PROTOCOL_VERSION,
    BatchResult,
    ErrorEnvelope,
    MetricsSnapshot,
    QueryRequest,
    QueryResponse,
    as_request,
    parse_request,
    parse_response,
    require_version,
)
from repro.api.recording import RecordingStateError, TraceRecorder
from repro.api.remote import RemoteGraphService
from repro.api.service import GraphService, LocalGraphService
from repro.api.taxonomy import ERROR_TABLE, ErrorRule, reconstruct, rule_for

__all__ = [
    # protocol
    "PROTOCOL_VERSION",
    "require_version",
    "parse_request",
    "parse_response",
    # envelopes
    "QueryRequest",
    "QueryResponse",
    "BatchResult",
    "ErrorEnvelope",
    "MetricsSnapshot",
    "as_request",
    # taxonomy
    "ERROR_TABLE",
    "ErrorRule",
    "rule_for",
    "reconstruct",
    # services
    "GraphService",
    "LocalGraphService",
    "RemoteGraphService",
    # recording
    "TraceRecorder",
    "RecordingStateError",
]

