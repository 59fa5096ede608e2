"""Dataset index interface (the "Filter" half of Method M).

A dataset index is built once over the dataset graphs and then, per query,
produces a *candidate set*: graph ids that might belong to the answer.  The
contract that every implementation must honour (and the test-suite checks) is
**no false dismissals**:

* subgraph query ``g``  → every graph with ``g ⊆ G`` is in the candidates;
* supergraph query ``g`` → every graph with ``G ⊆ g`` is in the candidates.

Indexes also report an estimate of their memory footprint — experiment II of
the paper is precisely about the space cost of more aggressive filtering
versus the (tiny) space cost of the GC cache.
"""

from __future__ import annotations

import abc
import sys
from collections import Counter
from collections.abc import Hashable, Iterable, Mapping

from repro.features.base import FeatureExtractor
from repro.graph.graph import Graph
from repro.query_model import QueryType

GraphId = int | str


def graph_id_sort_key(graph_id: GraphId) -> tuple[int, int | str]:
    """Stable total order over graph ids, even when int and str ids mix.

    Integer ids sort numerically before string ids (``key=repr`` would order
    ``10`` before ``2`` and is not reproducible for richer id types), so
    verification order — and therefore per-candidate timing attribution —
    is identical across runs.
    """
    if isinstance(graph_id, str):
        return (1, graph_id)
    return (0, graph_id)


def graphs_meeting_postings(
    requirements: list[tuple[Mapping[GraphId, int] | None, int]],
    graph_ids: Iterable[GraphId],
) -> set[GraphId]:
    """Graphs whose posting count reaches ``needed`` for every requirement.

    ``requirements`` pairs each query feature's posting (graph id → count;
    ``None`` or empty when no graph has the feature) with the count the query
    needs.  Only the smallest posting is scanned; the others are probed for
    the shrinking set of survivors.  A query without features keeps every
    graph in ``graph_ids``.
    """
    if not requirements:
        return set(graph_ids)
    ordered = sorted(requirements, key=lambda item: len(item[0]) if item[0] else 0)
    smallest, needed = ordered[0]
    if not smallest:
        return set()
    survivors = {graph_id for graph_id, count in smallest.items() if count >= needed}
    for posting, needed in ordered[1:]:
        if not survivors:
            break
        survivors = {
            graph_id for graph_id in survivors if posting.get(graph_id, 0) >= needed
        }
    return survivors


def feature_size(features: Mapping[Hashable, int]) -> tuple[int, int]:
    """``(distinct keys, total count)`` of a feature multiset."""
    return (len(features), sum(features.values()))


def graphs_within_features(
    query_features: Mapping[Hashable, int],
    graph_features: Mapping[GraphId, Mapping[Hashable, int]],
    graph_sizes: Mapping[GraphId, tuple[int, int]],
) -> set[GraphId]:
    """Graphs whose feature multiset is contained in the query's.

    ``graph_sizes`` holds :func:`feature_size` of every graph (computed at
    build time): a graph with more distinct keys or a larger total than the
    query cannot be contained in it and is skipped without a comparison.
    """
    max_keys, max_total = feature_size(query_features)
    contains = FeatureExtractor.multiset_contains
    return {
        graph_id
        for graph_id, (keys, total) in graph_sizes.items()
        if keys <= max_keys and total <= max_total
        and contains(query_features, graph_features[graph_id])
    }


class DatasetIndex(abc.ABC):
    """Abstract dataset index."""

    name: str = "abstract"

    @abc.abstractmethod
    def build(self, dataset: Iterable[Graph]) -> None:
        """Index the dataset graphs (callable once per index instance)."""

    @abc.abstractmethod
    def candidates(self, query: Graph, query_type: QueryType) -> set[GraphId]:
        """Return candidate graph ids for the query (no false dismissals)."""

    @abc.abstractmethod
    def memory_bytes(self) -> int:
        """Rough estimate of the index's in-memory footprint in bytes."""

    def describe(self) -> dict[str, object]:
        """Return the index's parameters for reports."""
        return {"name": self.name}


def estimate_object_bytes(obj: object) -> int:
    """Recursive, approximate ``sys.getsizeof`` over containers.

    Good enough for the relative space comparisons of experiment II; not a
    precise heap profiler.
    """
    seen: set[int] = set()

    def _size(value: object) -> int:
        if id(value) in seen:
            return 0
        seen.add(id(value))
        total = sys.getsizeof(value)
        if isinstance(value, dict):
            total += sum(_size(k) + _size(v) for k, v in value.items())
        elif isinstance(value, (list, tuple, set, frozenset)):
            total += sum(_size(item) for item in value)
        elif isinstance(value, Counter):
            total += sum(_size(k) + _size(v) for k, v in value.items())
        return total

    return _size(obj)


def feature_multiset_bytes(features: Counter) -> int:
    """Approximate storage for one feature multiset."""
    return estimate_object_bytes(dict(features))
