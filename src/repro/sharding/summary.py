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
proof of non-contribution, never of contribution, so pruning with a correct
summary can never drop answers.  Against an *incorrect* summary the planner
defends with a seal: every legitimate mutation re-seals the summary
(:meth:`_reseal`), :meth:`usable` re-checks the seal, and a corrupted or
explicitly stale summary makes the planner fall back to full scatter for
that shard (visible in ``/metrics``) instead of trusting it.
"""

from __future__ import annotations

import threading
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
    #: Explicit staleness flag (set by operators/tests, or by a failed
    #: refresh); a stale summary is never trusted for pruning.
    stale: bool = False
    #: Integrity seal over the pruning-relevant partition content; *only*
    #: :meth:`build`/:meth:`refresh` re-seal it, so out-of-band mutation
    #: (corruption) stays detected.  Seals are process-local (built on
    #: Python ``hash``) — they are never persisted.
    partition_seal: int = 0
    #: Serialises every *legitimate* mutation against :meth:`usable`, so a
    #: seal check never observes new content with an old seal (which would
    #: misreport a refresh as corruption).  Out-of-band corruption, by
    #: definition, bypasses it — and stays detected.
    _lock: threading.Lock = field(default_factory=threading.Lock,
                                  init=False, repr=False, compare=False)

    # ------------------------------------------------------------------ #
    # construction / maintenance
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
        summary = cls(
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
        summary._reseal()
        return summary

    def mark_stale(self) -> None:
        """Flag the summary as untrustworthy until the next rebuild."""
        self.stale = True

    def refresh(self, partition: list[Graph], extractor: FeatureExtractor) -> None:
        """Rebuild the partition-level vectors in place (clears staleness)."""
        rebuilt = ShardSummary.build(self.shard, partition, extractor)
        with self._lock:
            self.num_graphs = rebuilt.num_graphs
            self.union_features = rebuilt.union_features
            self.common_features = rebuilt.common_features
            self.label_set = rebuilt.label_set
            self.min_vertices = rebuilt.min_vertices
            self.max_vertices = rebuilt.max_vertices
            self.min_edges = rebuilt.min_edges
            self.max_edges = rebuilt.max_edges
            self.stale = False
            self.partition_seal = self._fingerprint_partition()

    def _fingerprint_partition(self) -> int:
        # order-independent XOR over the vector items: O(n) with no sorting
        # or string building — usable() runs this per shard per planned query
        token = 0
        for item in self.union_features.items():
            token ^= hash(("union", item))
        for item in self.common_features.items():
            token ^= hash(("common", item))
        return hash((
            self.shard,
            self.num_graphs,
            token,
            self.label_set,  # frozenset: hash computed once, then cached
            self.min_vertices, self.max_vertices,
            self.min_edges, self.max_edges,
        ))

    def _reseal(self) -> None:
        with self._lock:
            self.partition_seal = self._fingerprint_partition()

    def usable(self) -> bool:
        """True when the summary may be trusted to *prune* this shard."""
        if self.stale:
            return False
        with self._lock:
            return self.partition_seal == self._fingerprint_partition()

    # ------------------------------------------------------------------ #
    # screens
    # ------------------------------------------------------------------ #
    def prune_reason(
        self, query: Query, features: Counter[FeatureKey]
    ) -> str | None:
        """Why this shard provably cannot contribute answers (None = it may).

        Every returned reason is a *sound* proof of non-contribution;
        callers must have checked :meth:`usable` first — a stale or corrupt
        summary proves nothing.
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
            "stale": self.stale,
            "usable": self.usable(),
        }
