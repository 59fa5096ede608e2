"""ShardSummary: a compact, provably-sound sketch of one shard's partition.

NeedleTail (Kim et al.) shows that cheap per-partition density/locality
summaries let a system touch only the partitions that can contribute
answers.  The GC equivalent: every shard publishes

* ``union_features``  — pointwise max of the partition's feature multisets.
  A subgraph query needing more of some feature than the union supplies is
  contained in *no* partition graph (feature monotonicity under subgraph
  containment), so the shard can be skipped.
* ``common_features`` — pointwise min of the partition's multisets.  Every
  partition graph carries at least these counts, so a supergraph query
  providing fewer of some floor feature contains *no* partition graph.
* ``label_set`` plus the vertex/edge size envelope — the same two screens in
  their cheapest form (a query using an unknown label, or falling outside
  the partition's size range in the relevant direction, is unanswerable).

Summaries are *advisory only in the safe direction*: every screen is a
proof of non-contribution, never of contribution, so pruning can never drop
answers.  A summary is a plain value that :meth:`ShardSummary.build` fills
once: the router assigns every partition at construction and never moves a
graph, so the summary stays exact for the life of the system and the planner
trusts it without re-checking.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

from repro.features.base import FeatureExtractor, FeatureKey
from repro.graph.graph import Graph
from repro.query_model import Query, QueryType

#: Skip reasons the planner records per pruned shard.
REASON_SIZE = "size-envelope"
REASON_LABEL = "label-gap"
REASON_FEATURES = "feature-gap"
REASON_FLOOR = "feature-floor"


@dataclass
class ShardSummary:
    """Everything the planner may safely conclude about one shard."""

    shard: int
    num_graphs: int = 0
    union_features: Counter[FeatureKey] = field(default_factory=Counter)
    common_features: Counter[FeatureKey] = field(default_factory=Counter)
    label_set: frozenset[str] = frozenset()
    min_vertices: int = 0
    max_vertices: int = 0
    min_edges: int = 0
    max_edges: int = 0

    # ------------------------------------------------------------------ #
    # construction
    # ------------------------------------------------------------------ #
    @classmethod
    def build(
        cls, shard: int, partition: list[Graph], extractor: FeatureExtractor
    ) -> "ShardSummary":
        """Summarise a partition with ``extractor`` (the planner's family)."""
        multisets = [extractor.extract(graph) for graph in partition]
        labels: set[str] = set()
        for graph in partition:
            labels.update(graph.label_counts())
        return cls(
            shard=shard,
            num_graphs=len(partition),
            union_features=FeatureExtractor.multiset_union(multisets),
            common_features=FeatureExtractor.multiset_common(multisets),
            label_set=frozenset(labels),
            min_vertices=min((g.num_vertices for g in partition), default=0),
            max_vertices=max((g.num_vertices for g in partition), default=0),
            min_edges=min((g.num_edges for g in partition), default=0),
            max_edges=max((g.num_edges for g in partition), default=0),
        )

    # ------------------------------------------------------------------ #
    # screens
    # ------------------------------------------------------------------ #
    def prune_reason(
        self, query: Query, features: Counter[FeatureKey]
    ) -> str | None:
        """Why this shard provably cannot contribute answers (None = it may).

        Every returned reason is a *sound* proof of non-contribution.
        """
        graph = query.graph
        if query.query_type is QueryType.SUBGRAPH:
            # query ⊆ G requires a G at least as large as the query...
            if graph.num_vertices > self.max_vertices or graph.num_edges > self.max_edges:
                return REASON_SIZE
            # ...containing every query label (read off the compiled form the
            # planner forced when it extracted the query's features)...
            if any(label not in self.label_set for label in graph.compiled().label_bits):
                return REASON_LABEL
            # ...and at least the query's count of every feature.
            if not FeatureExtractor.multiset_contains(self.union_features, features):
                return REASON_FEATURES
            return None
        # supergraph: G ⊆ query requires a G no larger than the query...
        if graph.num_vertices < self.min_vertices or graph.num_edges < self.min_edges:
            return REASON_SIZE
        # ...and the query must supply every feature the *whole partition*
        # is floored at (every G carries >= common_features).
        for key, floor in self.common_features.items():
            if features.get(key, 0) < floor:
                return REASON_FLOOR
        return None

    def to_dict(self) -> dict:
        """Compact JSON-safe view (for ``/metrics`` and reports)."""
        return {
            "shard": self.shard,
            "num_graphs": self.num_graphs,
            "num_union_features": len(self.union_features),
            "num_common_features": len(self.common_features),
            "num_labels": len(self.label_set),
            "size_envelope": {
                "min_vertices": self.min_vertices,
                "max_vertices": self.max_vertices,
                "min_edges": self.min_edges,
                "max_edges": self.max_edges,
            },
        }
