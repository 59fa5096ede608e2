"""Exception hierarchy for the GC (GraphCache) reproduction library.

Every error raised intentionally by the library derives from
:class:`GraphCacheError`, so callers can catch a single base class.  More
specific subclasses exist for the major subsystems (graph model, isomorphism
engines, indexing/Method M, the cache kernel and workload handling).
"""

from __future__ import annotations


class GraphCacheError(Exception):
    """Base class for every error raised by the ``repro`` library."""


class GraphError(GraphCacheError):
    """Errors in the graph data model (bad vertices, edges, labels...)."""


class VertexNotFoundError(GraphError):
    """A vertex id was referenced that is not present in the graph."""

    def __init__(self, vertex: object) -> None:
        super().__init__(f"vertex {vertex!r} is not in the graph")
        self.vertex = vertex


class EdgeNotFoundError(GraphError):
    """An edge was referenced that is not present in the graph."""

    def __init__(self, u: object, v: object) -> None:
        super().__init__(f"edge ({u!r}, {v!r}) is not in the graph")
        self.u = u
        self.v = v


class DuplicateVertexError(GraphError):
    """A vertex id was added twice."""

    def __init__(self, vertex: object) -> None:
        super().__init__(f"vertex {vertex!r} already exists in the graph")
        self.vertex = vertex


class GraphFormatError(GraphCacheError):
    """A serialized graph (file or string) could not be parsed."""


class IsomorphismError(GraphCacheError):
    """Errors raised by the subgraph isomorphism engines."""


class BudgetExceededError(IsomorphismError):
    """A matcher exceeded its configured search budget (node visits/time)."""

    def __init__(self, budget: int) -> None:
        super().__init__(f"subgraph isomorphism search exceeded budget of {budget} states")
        self.budget = budget


class IndexError_(GraphCacheError):
    """Errors raised while building or querying a dataset/feature index."""


class MethodError(GraphCacheError):
    """Errors raised by Method M implementations (filter-then-verify)."""


class UnknownMethodError(MethodError):
    """A Method M name was requested that is not registered."""

    def __init__(self, name: str, available: list[str] | None = None) -> None:
        msg = f"unknown Method M {name!r}"
        if available:
            msg += f"; available: {', '.join(sorted(available))}"
        super().__init__(msg)
        self.name = name


class CacheError(GraphCacheError):
    """Errors raised by the cache kernel (policies, window, admission)."""


class UnknownPolicyError(CacheError):
    """A replacement policy name was requested that is not registered."""

    def __init__(self, name: str, available: list[str] | None = None) -> None:
        msg = f"unknown replacement policy {name!r}"
        if available:
            msg += f"; available: {', '.join(sorted(available))}"
        super().__init__(msg)
        self.name = name


class CacheCapacityError(CacheError):
    """The cache was configured with an invalid capacity."""


class WorkloadError(GraphCacheError):
    """Errors raised by the workload model and generators."""


class ConfigurationError(GraphCacheError):
    """Invalid configuration supplied to the runtime or its components."""


class ServerError(GraphCacheError):
    """Errors raised by the query serving subsystem."""


class AdmissionRejectedError(ServerError):
    """The server rejected a request up front (backpressure; HTTP 429).

    Raised when the request batcher's bounded queue is full; ``queue_depth``
    is that bound.
    """

    def __init__(self, queue_depth: int) -> None:
        super().__init__(f"request rejected: admission queue is full ({queue_depth} queued)")
        self.queue_depth = queue_depth


class ShardWorkerError(ServerError):
    """A shard worker process died (or went unreachable) and stayed down.

    Raised by the process shard backend once a worker cannot be reached *and*
    the bounded respawn budget is exhausted (or the replacement failed to
    start).  Retryable on the wire: a fresh request may land after an
    operator restores capacity, and the answers already returned are
    unaffected — a respawned worker re-executes only the failed queries.
    """

    def __init__(self, shard: int, reason: str, respawns: int = 0) -> None:
        super().__init__(
            f"shard {shard} worker process failed ({respawns} respawn(s) used): {reason}"
        )
        self.shard = shard
        self.respawns = respawns


class DeadlineExceededError(ServerError):
    """A query's deadline expired before (or while) the pipeline served it.

    Raised by the request batcher when it sheds an expired entry at
    batch-build time instead of executing dead work, and reconstructed on
    the client from the wire ``timeout`` code (HTTP 504) — the same code the
    server's request-timeout path has always spoken, so pre-deadline clients
    need no changes.  Retryable: a fresh attempt with a fresh deadline may
    well succeed once the queue drains.
    """

    def __init__(self, message: str = "query deadline exceeded",
                 deadline_seconds: float | None = None) -> None:
        super().__init__(message)
        self.deadline_seconds = deadline_seconds


class ServerClosedError(ServerError):
    """A request arrived while the server/batcher was draining or stopped."""


class RecordingStateError(ServerError):
    """Trace recording started while active, or stopped while idle (409)."""


class ProtocolError(ServerError):
    """A request or response payload violated the JSON wire protocol."""
