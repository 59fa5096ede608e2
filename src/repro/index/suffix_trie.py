"""Suffix-trie index over label paths (GraphGrepSX, Bonnici et al. 2010).

Reference [1] of the paper — the Method M used in the demo — organises the
label paths of every dataset graph in a suffix-tree structure: each trie node
represents a label sequence and stores, per graph, how many paths with that
label sequence occur.  Filtering walks the trie with the query's paths and
keeps the graphs whose counts dominate the query's counts.

Functionally the candidate sets equal those of an
:class:`~repro.index.inverted.InvertedFeatureIndex` over the same path
features; the trie differs in storage layout (shared prefixes) and is kept as
a faithful reproduction of the paper's Method M, as well as the second data
point for the space-accounting experiment (E2).
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Iterable

from repro.errors import IndexError_
from repro.features.paths import PathFeatureExtractor
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


class _TrieNode:
    """One node of the label-path trie."""

    __slots__ = ("children", "graph_counts")

    def __init__(self) -> None:
        self.children: dict[str, _TrieNode] = {}
        self.graph_counts: dict[GraphId, int] = {}

    def child(self, label: str, create: bool = False) -> "_TrieNode | None":
        node = self.children.get(label)
        if node is None and create:
            node = _TrieNode()
            self.children[label] = node
        return node


class SuffixTrieIndex(DatasetIndex):
    """GraphGrepSX-style suffix trie over label paths of bounded length."""

    name = "suffix_trie"

    def __init__(self, max_path_length: int = 3) -> None:
        if max_path_length < 1:
            raise IndexError_("max_path_length must be at least 1")
        self.max_path_length = max_path_length
        self.extractor = PathFeatureExtractor(max_length=max_path_length)
        self._root = _TrieNode()
        self._graph_features: dict[GraphId, Counter] = {}
        self._feature_sizes: dict[GraphId, tuple[int, int]] = {}
        self._graph_ids: list[GraphId] = []
        self._num_nodes = 1
        self._built = False

    # ------------------------------------------------------------------ #
    # build
    # ------------------------------------------------------------------ #
    def build(self, dataset: Iterable[Graph]) -> None:
        """Insert every dataset graph's label paths into the trie."""
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
                self._insert(key, graph_id, count)
        self._built = True

    def _insert(self, key: tuple[str, ...], graph_id: GraphId, count: int) -> None:
        node = self._root
        for label in key:
            existing = node.child(label)
            if existing is None:
                existing = node.child(label, create=True)
                self._num_nodes += 1
            node = existing
        node.graph_counts[graph_id] = count

    def _lookup(self, key: tuple[str, ...]) -> dict[GraphId, int] | None:
        node = self._root
        for label in key:
            node = node.child(label)
            if node is None:
                return None
        return node.graph_counts

    # ------------------------------------------------------------------ #
    # query
    # ------------------------------------------------------------------ #
    def candidates(self, query: Graph, query_type: QueryType) -> set[GraphId]:
        """Candidate graph ids by walking the trie with the query's paths."""
        self._require_built()
        query_type = QueryType.parse(query_type)
        query_features = self.extractor.extract(query)
        if query_type is QueryType.SUBGRAPH:
            return graphs_meeting_postings(
                [(self._lookup(key), needed) for key, needed in query_features.items()],
                self._graph_ids,
            )
        return graphs_within_features(query_features, self._graph_features, self._feature_sizes)

    # ------------------------------------------------------------------ #
    # introspection
    # ------------------------------------------------------------------ #
    def graph_ids(self) -> list[GraphId]:
        """All indexed graph ids, in dataset order."""
        self._require_built()
        return list(self._graph_ids)

    def num_trie_nodes(self) -> int:
        """Number of trie nodes (shared-prefix storage)."""
        return self._num_nodes

    def memory_bytes(self) -> int:
        """Approximate footprint of the trie plus the per-graph multisets."""
        total = estimate_object_bytes(self._graph_features)
        total += estimate_object_bytes(self._feature_sizes)
        stack = [self._root]
        while stack:
            node = stack.pop()
            total += 64  # node object overhead estimate
            total += estimate_object_bytes(node.graph_counts)
            total += sum(len(label) + 50 for label in node.children)
            stack.extend(node.children.values())
        return total

    def describe(self) -> dict[str, object]:
        return {
            "name": self.name,
            "max_path_length": self.max_path_length,
            "num_graphs": len(self._graph_ids),
            "num_trie_nodes": self._num_nodes,
        }

    def _require_built(self) -> None:
        if not self._built:
            raise IndexError_("index has not been built yet")
