"""ShardRouter: deterministic partitioning of a dataset across shards.

The router owns the single invariant the sharded engine's correctness rests
on: **every dataset graph is routed to exactly one shard**.  Because shards
hold disjoint partitions whose union is the full dataset, the union of
per-shard answer sets is exactly the unsharded answer set — no dedup, no
double counting — which is what the differential harness locks in.

A graph goes to the shard its *stable* id hash names (``zlib.crc32`` over
the id's string form; Python's built-in ``hash`` is salted per process and
would not reproduce across runs); a shard the hash leaves empty takes one
graph from the largest.  The assignment is computed once, at construction,
and is total and disjoint — the property suite checks both.
"""

from __future__ import annotations

import zlib

from repro.errors import ConfigurationError
from repro.graph.graph import Graph
from repro.index.base import GraphId


def stable_graph_id_hash(graph_id: GraphId) -> int:
    """A process-independent hash of a graph id (int or str).

    ``zlib.crc32`` over the id's string form: deterministic across runs and
    platforms, unlike the salted built-in ``hash`` for strings.
    """
    return zlib.crc32(str(graph_id).encode("utf-8"))


class ShardRouter:
    """Partitions a dataset across ``num_shards`` disjoint shards."""

    def __init__(self, dataset: list[Graph], num_shards: int) -> None:
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
        self._assignment = self._assign()

    # ------------------------------------------------------------------ #
    # routing
    # ------------------------------------------------------------------ #
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

    def _assign(self) -> dict[GraphId, int]:
        """Hash every graph id to a shard, then give each empty shard a graph.

        Hash routing can leave a shard empty on small datasets (every shard
        must hold ≥1 graph); each empty shard takes one graph from the
        currently largest shard, walking dataset order so the repair is
        deterministic.
        """
        assignment = {
            graph_id: stable_graph_id_hash(graph_id) % self.num_shards
            for graph_id in self._ids
        }
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
            "shard_sizes": self.shard_sizes(),
        }
