"""Inverted feature index (feature → graphs that contain it).

This is the workhorse FTV index: per feature it stores, for every dataset
graph, how many times the feature occurs.  Filtering is then:

* subgraph query ``g``: a graph ``G`` survives iff ``count_G(f) ≥ count_g(f)``
  for every feature ``f`` of the query;
* supergraph query ``g``: ``G`` survives iff ``count_G(f) ≤ count_g(f)`` for
  every feature ``f`` of ``G`` (the graph may not contain anything the query
  lacks).

Both directions follow from the feature family's monotonicity under subgraph
containment, so neither ever produces a false dismissal.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Iterable

from repro.errors import IndexError_
from repro.features.base import FeatureExtractor, FeatureKey
from repro.graph.graph import Graph
from repro.index.base import (
    DatasetIndex,
    GraphId,
    estimate_object_bytes,
    feature_size,
    graphs_meeting_postings,
    graphs_within_features,
)
from repro.query_model import QueryType


class InvertedFeatureIndex(DatasetIndex):
    """Inverted index over a feature extractor."""

    name = "inverted"

    def __init__(self, extractor: FeatureExtractor) -> None:
        self.extractor = extractor
        self._postings: dict[FeatureKey, dict[GraphId, int]] = {}
        self._graph_features: dict[GraphId, Counter[FeatureKey]] = {}
        self._feature_sizes: dict[GraphId, tuple[int, int]] = {}
        self._graph_ids: list[GraphId] = []
        self._built = False

    # ------------------------------------------------------------------ #
    # build
    # ------------------------------------------------------------------ #
    def build(self, dataset: Iterable[Graph]) -> None:
        """Extract features from every dataset graph and fill the postings."""
        if self._built:
            raise IndexError_("index is already built")
        for position, graph in enumerate(dataset):
            graph_id = graph.graph_id if graph.graph_id is not None else position
            if graph_id in self._graph_features:
                raise IndexError_(f"duplicate graph id {graph_id!r} in dataset")
            features = self.extractor.extract(graph)
            self._graph_ids.append(graph_id)
            self._graph_features[graph_id] = features
            self._feature_sizes[graph_id] = feature_size(features)
            for key, count in features.items():
                self._postings.setdefault(key, {})[graph_id] = count
        self._built = True

    # ------------------------------------------------------------------ #
    # query
    # ------------------------------------------------------------------ #
    def candidates(self, query: Graph, query_type: QueryType) -> set[GraphId]:
        """Candidate graph ids for a query of the given type."""
        self._require_built()
        query_type = QueryType.parse(query_type)
        query_features = self.extractor.extract(query)
        if query_type is QueryType.SUBGRAPH:
            return self._subgraph_candidates(query_features)
        return self._supergraph_candidates(query_features)

    def _subgraph_candidates(self, query_features: Counter[FeatureKey]) -> set[GraphId]:
        return graphs_meeting_postings(
            [(self._postings.get(key), needed) for key, needed in query_features.items()],
            self._graph_ids,
        )

    def _supergraph_candidates(self, query_features: Counter[FeatureKey]) -> set[GraphId]:
        return graphs_within_features(query_features, self._graph_features, self._feature_sizes)

    # ------------------------------------------------------------------ #
    # introspection
    # ------------------------------------------------------------------ #
    def graph_ids(self) -> list[GraphId]:
        """All indexed graph ids, in dataset order."""
        self._require_built()
        return list(self._graph_ids)

    def num_features(self) -> int:
        """Number of distinct features across the dataset."""
        return len(self._postings)

    def graph_features(self, graph_id: GraphId) -> Counter[FeatureKey]:
        """The stored feature multiset of one dataset graph."""
        self._require_built()
        try:
            return self._graph_features[graph_id]
        except KeyError:
            raise IndexError_(f"graph id {graph_id!r} is not indexed") from None

    def summary_vectors(self) -> tuple[Counter[FeatureKey], Counter[FeatureKey]]:
        """``(union, common)`` feature vectors over every indexed graph.

        The union is the pointwise maximum of the per-graph multisets, the
        common vector the pointwise minimum — the NeedleTail-style density
        summary a shard publishes so a scatter planner can prove the shard
        cannot contribute answers to a query.  Derived from the per-graph
        multisets the index already holds, so no re-extraction is needed —
        but pruning against these vectors is only sound for queries screened
        with the *same* extractor family this index was built with.  The
        sharded system deliberately does not use this shortcut: its
        summaries are built with a method-independent extractor
        (``ShardSummary.build``), so they stay sound for every Method M,
        including index-free direct SI.
        """
        self._require_built()
        multisets = list(self._graph_features.values())
        return (
            FeatureExtractor.multiset_union(multisets),
            FeatureExtractor.multiset_common(multisets),
        )

    def memory_bytes(self) -> int:
        """Approximate memory footprint of the postings and per-graph multisets."""
        return (
            estimate_object_bytes(self._postings)
            + estimate_object_bytes(self._graph_features)
            + estimate_object_bytes(self._feature_sizes)
        )

    def describe(self) -> dict[str, object]:
        return {
            "name": self.name,
            "extractor": self.extractor.describe(),
            "num_graphs": len(self._graph_ids),
            "num_features": len(self._postings),
        }

    def _require_built(self) -> None:
        if not self._built:
            raise IndexError_("index has not been built yet")
