"""GC / GraphCache: a semantic caching system for subgraph/supergraph queries.

Reproduction of Wang et al., "GC: A Graph Caching System for
Subgraph/Supergraph Queries" (PVLDB 11(12), 2018) and the underlying
GraphCache system.  See README.md for a quickstart and DESIGN.md for the
system inventory.

The most common entry points:

>>> from repro import GraphCacheSystem, GCConfig, molecule_dataset
>>> dataset = molecule_dataset(100, rng=7)
>>> system = GraphCacheSystem(dataset, GCConfig(cache_capacity=50))
>>> report = system.run_query(dataset[0].copy(), "subgraph")
>>> sorted(report.answer)[:3]          # doctest: +SKIP
[0, 17, 41]
"""

# Defined before the subpackage imports: repro.server reads it while this
# module is still initialising (repro.workload → replay → server chain).
__version__ = "1.1.0"

from repro.errors import (
    CacheError,
    ConfigurationError,
    GraphCacheError,
    GraphError,
    MethodError,
    WorkloadError,
)
from repro.graph import (
    Graph,
    molecule_dataset,
    molecule_graph,
    power_law_graph,
    random_labelled_graph,
    synthetic_dataset,
)
from repro.query_model import Query, QueryType
from repro.runtime import GCConfig, GraphCacheSystem, QueryReport
from repro.api import (
    ErrorEnvelope,
    LocalGraphService,
    MetricsSnapshot,
    QueryRequest,
    QueryResponse,
    RemoteGraphService,
)
from repro.server import QueryServer
from repro.workload import (
    Workload,
    WorkloadGenerator,
    WorkloadMix,
    compare_methods,
    compare_policies,
    generate_standard_workloads,
    generate_trace,
    replay_trace,
    run_workload,
)

__all__ = [
    "__version__",
    # errors
    "GraphCacheError",
    "GraphError",
    "MethodError",
    "CacheError",
    "WorkloadError",
    "ConfigurationError",
    # graph substrate
    "Graph",
    "molecule_graph",
    "molecule_dataset",
    "random_labelled_graph",
    "power_law_graph",
    "synthetic_dataset",
    # query model & runtime
    "Query",
    "QueryType",
    "GCConfig",
    "GraphCacheSystem",
    "QueryReport",
    # workloads
    "Workload",
    "WorkloadMix",
    "WorkloadGenerator",
    "generate_standard_workloads",
    "run_workload",
    "compare_policies",
    "compare_methods",
    # the service API (see repro.api for the full SDK surface)
    "QueryRequest",
    "QueryResponse",
    "ErrorEnvelope",
    "MetricsSnapshot",
    "LocalGraphService",
    "RemoteGraphService",
    # serving
    "QueryServer",
    "replay_trace",
    "generate_trace",
]
