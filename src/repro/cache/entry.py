"""Cache entries: an executed query, its answer set, and its utility statistics.

Each entry corresponds to one "cached graph" in the paper's terminology: the
pattern graph of a previously executed query together with its answer set
(dataset graph ids) and the bookkeeping the replacement policies need (recency,
popularity, sub-iso tests saved, sub-iso time saved).
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass, field

from repro.features.base import FeatureKey
from repro.graph.graph import Graph
from repro.index.base import GraphId, estimate_object_bytes
from repro.query_model import QueryType

_entry_counter = itertools.count(1)


@dataclass
class EntryStatistics:
    """Per-entry utility statistics maintained by ``update_cache_sta_info``."""

    #: Logical clock of the last time this entry produced a hit (LRU).
    last_used_clock: int = 0
    #: Number of times the entry produced any hit (POP).
    hit_count: int = 0
    #: Number of sub-case hits and super-case hits separately (reporting).
    sub_hits: int = 0
    super_hits: int = 0
    exact_hits: int = 0
    #: Total dataset sub-iso tests this entry saved other queries (PIN).
    tests_saved: int = 0
    #: Total dataset sub-iso seconds this entry saved other queries (PINC).
    seconds_saved: float = 0.0

    def snapshot(self) -> dict[str, float]:
        """Plain-dict view used by dashboards and tests."""
        return {
            "last_used_clock": self.last_used_clock,
            "hit_count": self.hit_count,
            "sub_hits": self.sub_hits,
            "super_hits": self.super_hits,
            "exact_hits": self.exact_hits,
            "tests_saved": self.tests_saved,
            "seconds_saved": self.seconds_saved,
        }


@dataclass
class CacheEntry:
    """One cached query: pattern graph, answer set and statistics."""

    graph: Graph
    query_type: QueryType
    answer: frozenset[GraphId]
    #: The pattern's index features, assigned from the graph's remembered
    #: analysis when the entry joins the store (empty while it waits in the
    #: admission window); counted in the entry's footprint.
    features: Counter[FeatureKey] = field(default_factory=Counter)
    entry_id: int = field(default_factory=lambda: next(_entry_counter))
    admitted_clock: int = 0
    #: Average cost (seconds) of one dataset sub-iso test observed when this
    #: query was originally executed; PINC uses it to translate saved tests
    #: into saved seconds for queries that were answered purely from cache.
    observed_test_cost: float = 0.0
    #: ``|C_M|`` when this query was executed: the dataset tests an exact hit
    #: on the entry saves, credited without running Method M's filter.
    baseline_tests: int = 0
    stats: EntryStatistics = field(default_factory=EntryStatistics)

    def __post_init__(self) -> None:
        self.query_type = QueryType.parse(self.query_type)

    @property
    def num_vertices(self) -> int:
        """Vertex count of the cached pattern."""
        return self.graph.num_vertices

    @property
    def num_edges(self) -> int:
        """Edge count of the cached pattern."""
        return self.graph.num_edges

    def memory_bytes(self) -> int:
        """Approximate footprint: pattern graph + answer ids + statistics."""
        graph_bytes = 0
        for vertex in self.graph.vertices():
            graph_bytes += 56 + len(str(self.graph.label(vertex)))
        graph_bytes += 32 * self.graph.num_edges
        answer_bytes = estimate_object_bytes(self.answer)
        feature_bytes = estimate_object_bytes(dict(self.features))
        return graph_bytes + answer_bytes + feature_bytes + 200

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return (
            f"<CacheEntry id={self.entry_id} |V|={self.num_vertices}"
            f" answers={len(self.answer)} hits={self.stats.hit_count}>"
        )
