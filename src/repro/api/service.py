"""GraphService: the one service boundary every execution mode sits behind.

A :class:`GraphService` answers typed :class:`QueryRequest` envelopes with
typed :class:`QueryResponse` envelopes, whatever actually executes them:

* :class:`LocalGraphService` — in this process, over a
  :class:`~repro.runtime.system.GraphCacheSystem` or a
  :class:`~repro.sharding.system.ShardedGraphCacheSystem`
  (``GCConfig.num_shards`` decides, via :func:`repro.sharding.make_system`);
* :class:`~repro.api.remote.RemoteGraphService` — over sync HTTP against a
  :class:`~repro.server.app.QueryServer`;
* :class:`~repro.api.aio.AsyncRemoteGraphService` — over asyncio HTTP with a
  connection pool (same envelopes, ``await``-shaped methods).

Failures surface as the *same* typed :mod:`repro.errors` exceptions in every
backend (remote transports reconstruct them from the wire taxonomy), so
callers write one error-handling path.  ``run_batch`` never raises for
per-query failures: each position of the returned :class:`BatchResult` is a
response or an :class:`ErrorEnvelope`.
"""

from __future__ import annotations

from typing import Protocol, runtime_checkable

from repro.api.envelopes import (
    BatchResult,
    ErrorEnvelope,
    MetricsSnapshot,
    QueryResponse,
    as_request,
)
from repro.errors import ConfigurationError


@runtime_checkable
class GraphService(Protocol):
    """What every backend guarantees (structural; no inheritance needed)."""

    def run(self, query, query_type=...) -> QueryResponse:  # pragma: no cover
        """Execute one query; raises the typed error on failure."""
        ...

    def run_batch(self, queries) -> BatchResult:  # pragma: no cover
        """Execute many queries; per-item outcomes, never raises per query."""
        ...

    def metrics(self) -> MetricsSnapshot:  # pragma: no cover
        ...

    def stats(self) -> dict:  # pragma: no cover
        ...

    def health(self) -> dict:  # pragma: no cover
        ...

    def close(self) -> None:  # pragma: no cover
        ...


class LocalGraphService:
    """The in-process backend: a system facade behind the service boundary.

    Build it from a dataset (the service then owns and closes the system) or
    wrap an existing system with :meth:`from_system` (the caller keeps
    ownership).  Sharding is transparent: ``config.num_shards > 1`` routes
    construction through :func:`repro.sharding.make_system`.
    """

    backend = "local"

    def __init__(self, dataset=None, config=None, method=None, *, system=None) -> None:
        if (dataset is None) == (system is None):
            raise ConfigurationError(
                "LocalGraphService needs exactly one of 'dataset' or 'system'"
            )
        if system is None:
            from repro.sharding import make_system

            self.system = make_system(dataset, config, method=method)
            self._owns_system = True
        else:
            self.system = system
            self._owns_system = False

    @classmethod
    def from_system(cls, system) -> "LocalGraphService":
        """Wrap a caller-owned system (it is *not* closed by this service)."""
        return cls(system=system)

    # ------------------------------------------------------------------ #
    # GraphService surface
    # ------------------------------------------------------------------ #
    def run(self, query, query_type="subgraph") -> QueryResponse:
        request = as_request(query, query_type)
        report = self.system.run_query(request.to_query())
        return QueryResponse.from_report(report, request_id=request.request_id)

    def run_batch(self, queries) -> BatchResult:
        """Execute a batch, in order on the calling thread, with per-item outcomes."""
        requests = [as_request(query) for query in queries]
        items: list = []
        for request in requests:
            try:
                items.append(self.run(request))
            except Exception as exc:
                items.append(ErrorEnvelope.from_exception(exc, request_id=request.request_id))
        return BatchResult(items=items)

    def metrics(self) -> MetricsSnapshot:
        return MetricsSnapshot.from_system(self.system)

    def stats(self) -> dict:
        return {
            "backend": self.backend,
            "config": self.system.config.to_dict(),
            "dataset_size": len(self.system.dataset),
        }

    def health(self) -> dict:
        return {"status": "ok", "backend": self.backend}

    def close(self) -> None:
        if self._owns_system:
            self.system.close()

    def __enter__(self) -> "LocalGraphService":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
