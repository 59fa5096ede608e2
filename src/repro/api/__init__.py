"""The unified GraphService API: typed envelopes, one boundary, three backends.

This package is the product-shaped SDK over the whole serving stack.  Every
execution mode — direct, cached, sharded, served over sync HTTP, served over
async HTTP — is reached through one :class:`GraphService` surface speaking
the :mod:`~repro.api.envelopes` types:

>>> from repro.api import LocalGraphService, QueryRequest
>>> service = LocalGraphService(dataset, GCConfig(num_shards=2))  # doctest: +SKIP
>>> response = service.run(QueryRequest(graph=pattern))           # doctest: +SKIP
>>> sorted(response.answer)                                       # doctest: +SKIP

Swap ``LocalGraphService`` for :class:`RemoteGraphService` (sync HTTP) or
:class:`AsyncRemoteGraphService` (asyncio, thousands of pooled connections)
without touching the calling code — same envelopes, same typed errors.
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
    "AsyncRemoteGraphService",
    "replay_trace_async",
    "replay_trace_async_blocking",
    # recording
    "TraceRecorder",
    "RecordingStateError",
]


def __getattr__(name: str):
    # the asyncio backend imports the replay machinery; load it lazily so
    # `import repro.api` stays cheap and cycle-free for low-level callers
    if name in ("AsyncRemoteGraphService", "replay_trace_async",
                "replay_trace_async_blocking"):
        from repro.api import aio

        return getattr(aio, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
