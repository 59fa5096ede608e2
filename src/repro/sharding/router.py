"""ShardRouter: deterministic partitioning of a dataset across shards.

The router owns the single invariant the sharded engine's correctness rests
on: **every dataset graph is routed to exactly one shard**.  Because shards
hold disjoint partitions whose union is the full dataset, the union of
per-shard answer sets is exactly the unsharded answer set — no dedup, no
double counting — which is what the differential harness locks in.

Three routing policies (named in :data:`repro.runtime.config.SHARD_POLICIES`):

* ``hash``          — a *stable* hash of the graph id (``zlib.crc32`` over its
  string form; Python's built-in ``hash`` is salted per process and would not
  reproduce across runs);
* ``round-robin``   — dataset position modulo the shard count;
* ``size-balanced`` — greedy largest-first (LPT) balancing on graph size
  (vertices + edges), so shards carry comparable verification work even when
  graph sizes are skewed.

The assignment is computed once, at construction, and is total and disjoint
under every policy — the property suite checks both.
"""

from __future__ import annotations

import zlib

from repro.errors import ConfigurationError
from repro.graph.graph import Graph
from repro.index.base import GraphId
from repro.runtime.config import SHARD_POLICIES


def stable_graph_id_hash(graph_id: GraphId) -> int:
    """A process-independent hash of a graph id (int or str).

    ``zlib.crc32`` over the id's string form: deterministic across runs and
    platforms, unlike the salted built-in ``hash`` for strings.
    """
    return zlib.crc32(str(graph_id).encode("utf-8"))


class ShardRouter:
    """Partitions a dataset across ``num_shards`` disjoint shards."""

    def __init__(
        self,
        dataset: list[Graph],
        num_shards: int,
        policy: str = "hash",
    ) -> None:
        if num_shards < 1:
            raise ConfigurationError("num_shards must be at least 1")
        if not dataset:
            raise ConfigurationError("the dataset must contain at least one graph")
        if num_shards > len(dataset):
            raise ConfigurationError(
                f"num_shards ({num_shards}) must not exceed the dataset size "
                f"({len(dataset)}): every shard needs at least one graph"
            )
        self.num_shards = num_shards
        self.dataset = list(dataset)
        self._ids = [
            graph.graph_id if graph.graph_id is not None else position
            for position, graph in enumerate(self.dataset)
        ]
        if len(set(self._ids)) != len(self._ids):
            raise ConfigurationError("dataset graph ids must be unique to shard")
        if policy not in SHARD_POLICIES:
            raise ConfigurationError(
                f"unknown shard policy {policy!r}; available: {', '.join(SHARD_POLICIES)}"
            )
        self.policy = policy
        self._assignment = self._compute_assignment(policy)

    # ------------------------------------------------------------------ #
    # routing
    # ------------------------------------------------------------------ #
    def shard_of(self, graph_id: GraphId) -> int:
        """The shard index the graph is routed to."""
        try:
            return self._assignment[graph_id]
        except KeyError:
            raise ConfigurationError(
                f"graph id {graph_id!r} is not part of the routed dataset"
            ) from None

    def assignment(self) -> dict[GraphId, int]:
        """A copy of the full graph-id → shard-index assignment."""
        return dict(self._assignment)

    def partitions(self) -> list[list[Graph]]:
        """Per-shard graph lists (dataset order preserved within a shard)."""
        parts: list[list[Graph]] = [[] for _ in range(self.num_shards)]
        for graph, graph_id in zip(self.dataset, self._ids):
            parts[self._assignment[graph_id]].append(graph)
        return parts

    def shard_sizes(self) -> list[int]:
        """Number of graphs per shard."""
        sizes = [0] * self.num_shards
        for shard in self._assignment.values():
            sizes[shard] += 1
        return sizes

    def _compute_assignment(self, policy: str) -> dict[GraphId, int]:
        if policy == "round-robin":
            return {
                graph_id: position % self.num_shards
                for position, graph_id in enumerate(self._ids)
            }
        if policy == "hash":
            assignment = {
                graph_id: stable_graph_id_hash(graph_id) % self.num_shards
                for graph_id in self._ids
            }
            return self._fill_empty_shards(assignment)
        # size-balanced: LPT — place graphs largest-first on the currently
        # lightest shard (ties broken by shard index, then dataset order, so
        # the assignment is deterministic)
        loads = [0] * self.num_shards
        assignment: dict[GraphId, int] = {}
        weighted = sorted(
            enumerate(zip(self.dataset, self._ids)),
            key=lambda item: (-(item[1][0].num_vertices + item[1][0].num_edges), item[0]),
        )
        for _, (graph, graph_id) in weighted:
            shard = min(range(self.num_shards), key=lambda s: (loads[s], s))
            assignment[graph_id] = shard
            loads[shard] += graph.num_vertices + graph.num_edges
        # zero-weight graphs (empty patterns) all tie-break onto shard 0 —
        # the no-empty-shard invariant needs repairing here too
        return self._fill_empty_shards(assignment)

    def _fill_empty_shards(self, assignment: dict[GraphId, int]) -> dict[GraphId, int]:
        """Ensure no shard is empty (every shard must hold ≥1 graph).

        Hash routing (and size-balanced routing over zero-weight graphs) can
        leave a shard empty on small datasets; donate one graph from the
        currently largest shard to each empty one, walking dataset order so
        the fix is deterministic.
        """
        sizes = [0] * self.num_shards
        for shard in assignment.values():
            sizes[shard] += 1
        for empty in range(self.num_shards):
            if sizes[empty] > 0:
                continue
            donor = max(range(self.num_shards), key=lambda s: (sizes[s], -s))
            for graph_id in self._ids:
                if assignment[graph_id] == donor:
                    assignment[graph_id] = empty
                    sizes[donor] -= 1
                    sizes[empty] += 1
                    break
        return assignment

    def describe(self) -> dict[str, object]:
        """Routing summary for reports and the server's metrics payload."""
        return {
            "num_shards": self.num_shards,
            "policy": self.policy,
            "shard_sizes": self.shard_sizes(),
        }
