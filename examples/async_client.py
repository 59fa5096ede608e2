#!/usr/bin/env python3
"""The async client: thousands of connections from one process.

The scale tour of the service API:

1. serve a 2-shard short-circuit system;
2. open an :class:`AsyncRemoteGraphService` and pre-warm a pool of 800
   keep-alive connections — a population a thread-per-connection client
   would need 800 OS threads to hold;
3. replay a mixed trace open-loop over the pool and compare tail latency
   and pool health with the sync client on the same trace;
4. show that the answer sets are identical — the async path changes the
   transport, never the semantics.

Run with:  python examples/async_client.py
"""

from __future__ import annotations

import asyncio

from repro import GCConfig, molecule_dataset
from repro.api import RemoteGraphService
from repro.api.aio import AsyncRemoteGraphService, replay_trace_async
from repro.dashboard import format_table
from repro.server import QueryServer
from repro.workload import generate_trace, replay_trace

CONNECTIONS = 800


def main() -> None:
    dataset = molecule_dataset(40, min_vertices=8, max_vertices=18, rng=7)
    trace = generate_trace(dataset, 800, skew="zipfian", query_type="mixed", seed=9)
    config = GCConfig(cache_capacity=25, window_size=5,
                      num_shards=2, scatter_mode="short-circuit")

    with QueryServer(dataset, config, max_batch_size=8,
                     max_queue_depth=4096) as server:
        print(f"serving at {server.address} (2 shards, short-circuit scatter)\n")

        # sync arm: 8 threads, 8 connections — the thread client's range
        sync_result = replay_trace(RemoteGraphService.for_server(server),
                                   trace, target_qps=300.0, num_threads=8)

        # async arm: one event loop holding CONNECTIONS pooled connections
        async def go():
            async with AsyncRemoteGraphService.for_server(
                    server, max_connections=CONNECTIONS) as client:
                result = await replay_trace_async(
                    client, trace, target_qps=300.0,
                    warm_connections=CONNECTIONS,
                )
                return result, client.pool_stats()

        async_result, pool = asyncio.run(go())

        rows = [
            {"client": "sync (8 threads)", **sync_result.summary()},
            {"client": f"async ({CONNECTIONS} conns)", **async_result.summary()},
        ]
        print(format_table(rows, columns=["client", "served", "rejected",
                                          "achieved_qps", "num_connections",
                                          "p50_ms", "p95_ms", "p99_ms"]))
        print(f"\npool held        : {pool['peak_open_connections']} open connections "
              f"(peak in-flight {pool['peak_in_flight']})")
        same = async_result.answers() == sync_result.answers()
        print(f"answers identical: {same} ✓" if same else "ANSWERS DIVERGED ✗")
        assert same


if __name__ == "__main__":
    main()
