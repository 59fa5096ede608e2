#!/usr/bin/env python3
"""Sharded scatter-gather serving: the same traffic, partitioned N ways.

The sharding tour of the library:

1. route a dataset across 4 shards by graph-id hash and inspect the routing;
2. prove equivalence in-process: the sharded engine's answers are identical
   to a single unsharded system's on the same trace;
3. serve the sharded system over HTTP through the GraphService SDK, replay
   the trace, and read the per-shard sections of the typed metrics snapshot
   (merged + per-shard aggregates, merge overhead booked as its own
   pipeline stage);
4. show the snapshot fan-out: one manifest plus one file per shard.

Run with:  python examples/sharded_serving.py

Pass ``--shard-backend process`` to host every shard in a spawned worker
process (v2 envelopes over loopback) instead of in-process threads — same
answers, same metrics fan-in, but CPU-bound verification is no longer
GIL-bound.
"""

from __future__ import annotations

import argparse
import tempfile
from pathlib import Path

from repro import GCConfig, molecule_dataset
from repro.api import LocalGraphService, QueryRequest, RemoteGraphService
from repro.dashboard import format_table
from repro.server import QueryServer
from repro.sharding import ShardRouter
from repro.workload import generate_trace, replay_trace

NUM_SHARDS = 4


def clones(trace) -> list[QueryRequest]:
    return [QueryRequest(graph=q.graph.copy(), query_type=q.query_type)
            for q in trace]


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--shard-backend", choices=["thread", "process"],
                        default="thread",
                        help="host shards in-process ('thread') or in spawned "
                             "worker processes ('process')")
    args = parser.parse_args()

    dataset = molecule_dataset(60, min_vertices=10, max_vertices=25, rng=7)
    trace = generate_trace(dataset, 120, skew="zipfian", query_type="mixed", seed=9)

    # 1. the router: every graph lands on exactly one shard
    router = ShardRouter(dataset, NUM_SHARDS)
    print(f"router: {router.describe()}")

    # 2. equivalence through one API: the sharded service's answers are
    #    identical to the unsharded service's on the same trace — whichever
    #    backend hosts the shards
    config = GCConfig(cache_capacity=30, window_size=5,
                      num_shards=NUM_SHARDS, shard_backend=args.shard_backend)
    with LocalGraphService(dataset, GCConfig(cache_capacity=30, window_size=5)) as single:
        reference = [r.answer for r in single.run_batch(clones(trace)).raise_first()]
    with LocalGraphService(dataset, config) as sharded:
        answers = [r.answer for r in sharded.run_batch(clones(trace)).raise_first()]
        merge_rows = [row for row in sharded.system.stage_breakdown()
                      if row["stage"] == "merge"]
    assert answers == reference, "scatter-gather must not change any answer"
    print(f"equivalence      : {len(answers)} queries, "
          f"sharded({args.shard_backend}) == unsharded ✓")
    if merge_rows:
        print(f"merge overhead   : {merge_rows[0]['total_seconds'] * 1000:.2f} ms total "
              f"({merge_rows[0]['share'] * 100:.2f}% of stage time)")

    # 3. the same system behind the HTTP server, snapshot fan-out configured
    snapshot = Path(tempfile.mkdtemp()) / "sharded-snapshot.json"
    with QueryServer(dataset, config, max_batch_size=4,
                     snapshot_path=snapshot) as server:
        print(f"\nserving at {server.address} "
              f"({NUM_SHARDS} {args.shard_backend} shards)\n")
        client = RemoteGraphService.for_server(server)
        result = replay_trace(client, trace, num_threads=4)
        print(format_table([result.summary()]))

        metrics = client.metrics()
        per_shard = [
            {
                "shard": row["shard"],
                "graphs": row["dataset_size"],
                "cached": row["cache"]["population"],
                "queries": metrics.statistics["shards"][f"shard{row['shard']}"]
                ["num_queries"],
            }
            for row in metrics.shards
        ]
        print("\nper-shard view:")
        print(format_table(per_shard))

    # 4. snapshot fan-out: manifest + one file per shard
    files = sorted(path.name for path in snapshot.parent.iterdir())
    print(f"\nsnapshot files   : {files}")


if __name__ == "__main__":
    main()
