"""Label-path features (the GraphGrepSX / Grapes family).

A path feature of length *k* is the sequence of vertex labels along a simple
path with *k* edges.  Because the graphs are undirected, a path and its
reverse are the same feature; the lexicographically smaller of the two label
sequences is used as the canonical key.

Path features are the feature family used by Method M in the demo (Bonnici et
al.'s suffix-tree index, reference [1]); the ``max_length`` knob is exactly
the "feature size" dial of experiment II (§3.1), where increasing it by one
roughly doubles index space for ≈10 % query-time gain.

A query's label paths are asked for by every layer it crosses — the scatter
planner (length 1), the dataset filter (Method M's feature size) and the
cache's query index (length 2) — and the shorter multisets are exact
restrictions of the longest one.  :func:`path_features` therefore remembers,
beside the graph's compiled form, the multiset at the longest length asked
for so far and derives the rest; :func:`enumerate_paths` is the enumeration
itself, which index and summary builds call directly so that dataset graphs
retain nothing.
"""

from __future__ import annotations

from collections import Counter

from repro.errors import IndexError_
from repro.features.base import FeatureExtractor, FeatureKey
from repro.graph.graph import Graph, VertexId


def canonical_path_key(labels: list[str]) -> tuple[str, ...]:
    """Canonical (direction-independent) key for a label path."""
    forward = tuple(labels)
    backward = tuple(reversed(labels))
    return forward if forward <= backward else backward


def enumerate_paths(graph: Graph, max_length: int) -> Counter[FeatureKey]:
    """The multiset of canonical label-path keys with 0..max_length edges.

    Length-0 paths are single vertex labels, so even a one-vertex query has a
    non-empty feature multiset.  Enumeration is DFS with an on-path visited
    set (simple paths only); each undirected path is counted once.
    """
    features: Counter[FeatureKey] = Counter()
    for vertex in graph.vertices():
        features[(graph.label(vertex),)] += 1
        _extend(graph, max_length, [vertex], {vertex}, features)
    # every path of length >= 1 is discovered twice (once from each end);
    # halve those counts so the multiset is well defined
    normalised: Counter[FeatureKey] = Counter()
    for key, count in features.items():
        if len(key) == 1:
            normalised[key] = count
        else:
            normalised[key] = count // 2
    return normalised


def _extend(
    graph: Graph,
    max_length: int,
    path: list[VertexId],
    on_path: set[VertexId],
    features: Counter[FeatureKey],
) -> None:
    if len(path) - 1 >= max_length:
        return
    tail = path[-1]
    for neighbor in graph.neighbors(tail):
        if neighbor in on_path:
            continue
        path.append(neighbor)
        on_path.add(neighbor)
        labels = [graph.label(v) for v in path]
        features[canonical_path_key(labels)] += 1
        _extend(graph, max_length, path, on_path, features)
        on_path.discard(neighbor)
        path.pop()


def path_features(graph: Graph, max_length: int) -> Counter[FeatureKey]:
    """A pattern graph's label paths up to ``max_length``; do not mutate them.

    The graph remembers one multiset, at the longest length asked for so far
    (dropped with its compiled form on mutation).  A shorter length is its
    restriction to keys of at most ``max_length + 1`` labels — exactly what
    enumerating at that length would have produced.
    """
    compiled = graph.compiled()
    memo = compiled.paths
    if memo is None or memo[0] < max_length:
        memo = compiled.paths = (max_length, enumerate_paths(graph, max_length))
    longest, features = memo
    if longest == max_length:
        return features
    return Counter({
        key: count for key, count in features.items() if len(key) <= max_length + 1
    })


class PathFeatureExtractor(FeatureExtractor):
    """All simple label paths with 0..max_length edges."""

    name = "paths"

    def __init__(self, max_length: int = 3) -> None:
        if max_length < 0:
            raise IndexError_("max_length must be non-negative")
        self.max_length = max_length

    def describe(self) -> dict[str, object]:
        return {"name": self.name, "max_length": self.max_length}

    def extract(self, graph: Graph) -> Counter[FeatureKey]:
        """Enumerate the label paths of ``graph`` (nothing is remembered)."""
        return enumerate_paths(graph, self.max_length)

    def extract_pattern(self, graph: Graph) -> Counter[FeatureKey]:
        """The label paths of a query graph, from its remembered analysis."""
        return path_features(graph, self.max_length)
