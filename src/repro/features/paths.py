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
cache store's screen (length 2) — and the shorter multisets are exact
restrictions of the longest one.  :func:`path_features` therefore enumerates
a query graph once, at the longest length asked for so far, and remembers
that multiset and each restriction derived from it beside the graph's
compiled form; :func:`enumerate_paths` is the enumeration itself, which index
and summary builds call directly so that dataset graphs retain nothing.
Isomorphic graphs have equal multisets, so the cache's exact-match screen is
the same length-2 multiset compared for equality.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Sequence

from repro.errors import IndexError_
from repro.features.base import FeatureExtractor, FeatureKey
from repro.graph.graph import Graph


def canonical_path_key(labels: Sequence[str]) -> tuple[str, ...]:
    """Canonical (direction-independent) key for a label path."""
    forward = tuple(labels)
    return min(forward, forward[::-1])


def enumerate_paths(graph: Graph, max_length: int) -> Counter[FeatureKey]:
    """The multiset of canonical label-path keys with 0..max_length edges.

    Length-0 paths are single vertex labels, so even a one-vertex query has a
    non-empty feature multiset.  Every simple path of at least one edge is
    walked once from each end, and what a step counts is the *directed* label
    sequence — the walk's tuple grown by one label.  Only then is each
    distinct sequence canonicalised, once: a path's two walks count one each
    of a sequence and its reverse, so the canonical direction's count is the
    path count, and a palindrome, which both walks count, is halved.
    """
    labels = graph.labels()
    features: Counter[FeatureKey] = Counter((label,) for label in labels.values())
    if max_length < 1:
        return features
    # the graph read once: vertices numbered 0..n-1, a label and a neighbour list each
    number = {vertex: position for position, vertex in enumerate(labels)}
    label_of = list(labels.values())
    adjacency = [[number[neighbor] for neighbor in graph.neighbors(vertex)] for vertex in labels]
    on_path = [False] * len(label_of)
    directed: dict[FeatureKey, int] = {}

    def extend(vertex: int, sequence: tuple[str, ...], steps_left: int) -> None:
        on_path[vertex] = True
        for neighbor in adjacency[vertex]:
            if not on_path[neighbor]:
                key = sequence + (label_of[neighbor],)
                directed[key] = directed.get(key, 0) + 1
                if steps_left:
                    extend(neighbor, key, steps_left - 1)
        on_path[vertex] = False

    for vertex, label in enumerate(label_of):
        extend(vertex, (label,), max_length - 1)
    for key, count in directed.items():
        if key == canonical_path_key(key):
            features[key] = count if key != key[::-1] else count // 2
    return features


def path_features(graph: Graph, max_length: int) -> Counter[FeatureKey]:
    """A pattern graph's label paths up to ``max_length``; do not mutate them.

    The graph remembers one multiset per length asked for (dropped with its
    compiled form on mutation), and enumerates only for a length longer than
    any it remembers.  A shorter length is the longest multiset's restriction
    to keys of at most ``max_length + 1`` labels — exactly what enumerating at
    that length would have produced — built once and remembered beside it.
    """
    compiled = graph.compiled()
    memo = compiled.paths
    if memo is None:
        memo = compiled.paths = {}
    features = memo.get(max_length)
    if features is None:
        longest = max(memo, default=-1)
        if longest < max_length:
            features = enumerate_paths(graph, max_length)
        else:
            features = Counter({
                key: count for key, count in memo[longest].items()
                if len(key) <= max_length + 1
            })
        memo[max_length] = features
    return features


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
