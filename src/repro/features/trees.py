"""Tree-shaped (star) features, in the style of CT-Index / TreePi.

The key requirement on any FTV feature family is *monotonicity under
subgraph containment*: if ``q ⊆ G`` then every feature occurrence of ``q``
must map to a distinct feature occurrence of ``G``, so feature-multiset
containment is a necessary condition and filtering never produces false
dismissals.

Star features satisfy this: a star is a centre vertex plus a set of ``k``
distinct neighbours, encoded as ``(centre label, sorted leaf labels)``.  Any
monomorphism maps a star of the query onto a star of the target injectively,
occurrence by occurrence.  Enumeration is complete (all neighbour subsets up
to ``max_leaves``), which keeps the multiset argument exact.

Maximal-BFS-tree encodings (as used for graph *identity* hashing) are **not**
monotone and are deliberately not offered here.
"""

from __future__ import annotations

import itertools
from collections import Counter

from repro.errors import IndexError_
from repro.features.base import FeatureExtractor, FeatureKey
from repro.graph.graph import Graph


class StarFeatureExtractor(FeatureExtractor):
    """Complete enumeration of star features with 1..max_leaves leaves.

    ``max_leaves`` plays the same "feature size" role as path length does for
    path features: one more leaf means a more discriminative but much larger
    index (experiment II's trade-off).
    """

    name = "stars"

    def __init__(self, max_leaves: int = 3) -> None:
        if max_leaves < 1:
            raise IndexError_("max_leaves must be at least 1")
        self.max_leaves = max_leaves

    def describe(self) -> dict[str, object]:
        return {"name": self.name, "max_leaves": self.max_leaves}

    def extract(self, graph: Graph) -> Counter[FeatureKey]:
        """Return the multiset of star features of ``graph``."""
        features: Counter[FeatureKey] = Counter()
        for vertex in graph.vertices():
            neighbor_labels = sorted(graph.label(n) for n in graph.neighbors(vertex))
            center = graph.label(vertex)
            features[("S", center, ())] += 1
            for size in range(1, min(self.max_leaves, len(neighbor_labels)) + 1):
                for combo in itertools.combinations(neighbor_labels, size):
                    features[("S", center, combo)] += 1
        return features
