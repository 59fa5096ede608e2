"""Query serving subsystem: HTTP boundary, request batching, backpressure.

The paper's GC is a *system* fronting subgraph/supergraph query processing
for many concurrent clients; this package is that serving boundary for the
reproduction — stdlib-only, embeddable, observable.
"""

from repro.server.app import QueryServer
from repro.server.batcher import BatcherStats, RequestBatcher, ServedQuery

__all__ = [
    "QueryServer",
    "RequestBatcher",
    "BatcherStats",
    "ServedQuery",
]
