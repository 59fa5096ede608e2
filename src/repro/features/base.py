"""Feature abstraction for FTV ("filter-then-verify") indexing.

A *feature* is a small substructure of a graph — the paper names paths, trees
and subgraphs as the typical choices.  FTV methods index the dataset graphs
by the multiset of features they contain; at query time the same extractor is
applied to the query and containment reasoning over feature multisets yields
a candidate set.

Every extractor maps a graph to a ``Counter`` keyed by a hashable canonical
feature key, so the index layer never needs to know what kind of feature it
is storing.
"""

from __future__ import annotations

import abc
import functools
import operator
from collections import Counter
from collections.abc import Hashable

from repro.graph.graph import Graph

FeatureKey = Hashable


class FeatureExtractor(abc.ABC):
    """Maps a graph to a multiset (Counter) of canonical feature keys."""

    #: Short name used in registries and reports.
    name: str = "abstract"

    @abc.abstractmethod
    def extract(self, graph: Graph) -> Counter[FeatureKey]:
        """Enumerate the feature multiset of ``graph``, leaving nothing on it.

        This is what index and summary *builds* call: a dataset graph's
        multiset goes into the index and is dropped.
        """

    def extract_pattern(self, graph: Graph) -> Counter[FeatureKey]:
        """The feature multiset of a *pattern* (query) graph; do not mutate it.

        Every layer a query passes through asks for its features, so a family
        that is asked more than once (label paths) remembers them on the
        graph; the others just enumerate.
        """
        return self.extract(graph)

    def describe(self) -> dict[str, object]:
        """Return the extractor's parameters (for reports and DESIGN docs)."""
        return {"name": self.name}

    # ------------------------------------------------------------------ #
    # containment reasoning shared by the index layer
    # ------------------------------------------------------------------ #
    @staticmethod
    def multiset_contains(container: Counter[FeatureKey], contained: Counter[FeatureKey]) -> bool:
        """True iff ``contained`` is a sub-multiset of ``container``.

        If graph ``a`` is a subgraph of graph ``b`` then (for any sound
        feature definition) ``features(a) ⊆ features(b)`` as multisets; the
        contrapositive is what filtering uses.
        """
        for key, count in contained.items():
            if container.get(key, 0) < count:
                return False
        return True

    # ------------------------------------------------------------------ #
    # partition summaries (shard pruning)
    # ------------------------------------------------------------------ #
    @staticmethod
    def multiset_union(multisets: list[Counter[FeatureKey]]) -> Counter[FeatureKey]:
        """Pointwise *maximum* over the multisets (the partition's ceiling).

        If a query needs more of some feature than this union supplies, then
        no member graph can contain the query — the screen shard pruning
        applies to subgraph queries.
        """
        return functools.reduce(operator.or_, multisets, Counter())

    @staticmethod
    def multiset_common(multisets: list[Counter[FeatureKey]]) -> Counter[FeatureKey]:
        """Pointwise *minimum* over the multisets (the partition's floor).

        Every member graph carries at least these feature counts, so a
        supergraph query providing fewer of some floor feature cannot contain
        *any* member — the dual screen for supergraph-query shard pruning.
        An empty input yields an empty floor.
        """
        if not multisets:
            return Counter()
        return functools.reduce(operator.and_, multisets[1:], Counter(multisets[0]))


class CompositeExtractor(FeatureExtractor):
    """Union of several extractors (keys are namespaced per extractor)."""

    name = "composite"

    def __init__(self, extractors: list[FeatureExtractor]) -> None:
        if not extractors:
            raise ValueError("CompositeExtractor needs at least one extractor")
        self.extractors = list(extractors)

    def extract(self, graph: Graph) -> Counter[FeatureKey]:
        """Extract with every sub-extractor, namespacing keys by extractor name."""
        combined: Counter[FeatureKey] = Counter()
        for extractor in self.extractors:
            for key, count in extractor.extract(graph).items():
                combined[(extractor.name, key)] += count
        return combined

    def describe(self) -> dict[str, object]:
        return {
            "name": self.name,
            "extractors": [extractor.describe() for extractor in self.extractors],
        }
