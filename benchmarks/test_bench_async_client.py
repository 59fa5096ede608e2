"""S4 — Async client: connection-count scaling, sync vs async, fixed QPS.

The ROADMAP "async client" claim, measured: a thread-per-connection sync
replay spends one OS thread per connection and tops out around hundreds,
while the asyncio client multiplexes thousands of pooled keep-alive
connections on one event loop.  Both clients replay the same trace against
a fresh 2-shard short-circuit server at the same open-loop target QPS; the
table scans connection counts from the sync client's comfortable range up
to **4× its configured ceiling**, a population only the async client can
hold (the acceptance bar: served QPS reported at ≥ 4× the sync ceiling's
connection count, with zero errors and answers identical across clients).

Smoke mode (``run_all.py --smoke`` / ``GC_BENCH_SMOKE=1``) shrinks the
connection counts and trace by 4× while keeping the 4× ceiling ratio, so CI
tracks the scaling shape on every push.
"""

from __future__ import annotations

import asyncio

import pytest

from repro.api.aio import AsyncRemoteGraphService, replay_trace_async
from repro.api.remote import RemoteGraphService
from repro.runtime import GCConfig
from repro.server import QueryServer
from repro.workload import generate_trace, replay_trace

from benchmarks.harness import (
    bench_scatter_mode,
    bench_shards,
    rows_to_report,
    smoke_mode,
    smoke_scaled,
    standard_dataset,
    write_json_report,
)

#: The thread-per-connection client's configured ceiling: beyond a few
#: hundred threads, spawn latency and scheduler pressure dominate (and a
#: thousand is simply not a sane thread count for one replay process).
SYNC_CEILING = smoke_scaled(256, 64)
SYNC_ARMS = [SYNC_CEILING // 4, SYNC_CEILING]
ASYNC_ARMS = [SYNC_CEILING, 4 * SYNC_CEILING]
TARGET_QPS = smoke_scaled(400.0, 200.0)


@pytest.fixture(scope="module")
def scenario():
    dataset = standard_dataset(smoke_scaled(24, 16), seed=51,
                               min_vertices=8, max_vertices=14)
    # one query per connection at the largest arm, so every connection of
    # the 4×-ceiling run actually carries traffic
    trace = generate_trace(dataset, max(ASYNC_ARMS), skew="zipfian",
                           query_type="mixed", seed=52)
    return dataset, trace


def fresh_server(dataset) -> QueryServer:
    config = GCConfig(
        cache_capacity=20, window_size=5,
        num_shards=bench_shards(2), scatter_mode=bench_scatter_mode("short-circuit"),
    )
    return QueryServer(dataset, config, max_batch_size=8,
                       max_queue_depth=4096, request_timeout_seconds=120.0)


def sync_arm(dataset, trace, num_threads: int):
    with fresh_server(dataset) as server:
        client = RemoteGraphService.for_server(server, timeout=120.0)
        result = replay_trace(client, trace, target_qps=TARGET_QPS,
                              num_threads=num_threads)
    return result, {"connections": num_threads}


def async_arm(dataset, trace, connections: int):
    with fresh_server(dataset) as server:

        async def go():
            async with AsyncRemoteGraphService.for_server(
                    server, max_connections=connections, timeout=120.0) as client:
                result = await replay_trace_async(
                    client, trace, target_qps=TARGET_QPS,
                    warm_connections=connections,
                )
                return result, client.pool_stats()

        result, pool = asyncio.run(go())
    return result, {"connections": pool["peak_open_connections"], "pool": pool}


def arm_row(client: str, result, meta: dict) -> dict:
    tails = result.latency_percentiles()
    return {
        "client": client,
        "connections": meta["connections"],
        "queries": len(result.events),
        "served": result.served,
        "rejected": result.rejected,
        "errors": result.errors,
        "queries_per_sec": round(result.achieved_qps, 1),
        "p50_ms": round(tails["p50"] * 1000.0, 2),
        "p95_ms": round(tails["p95"] * 1000.0, 2),
        "p99_ms": round(tails["p99"] * 1000.0, 2),
    }


def test_bench_async_client(benchmark, scenario):
    """Connection scaling at fixed target QPS; answers identical throughout."""
    dataset, trace = scenario

    rows = []
    reference_answers = None
    for num_threads in SYNC_ARMS:
        result, meta = sync_arm(dataset, trace, num_threads)
        assert result.errors == 0, f"sync arm errored: {result.summary()}"
        assert result.served == len(trace), f"sync arm dropped: {result.summary()}"
        if reference_answers is None:
            reference_answers = result.answers()
        assert result.answers() == reference_answers, (
            f"answers changed at sync threads={num_threads}")
        rows.append(arm_row("sync", result, meta))

    async_pools = {}
    for connections in ASYNC_ARMS:
        result, meta = async_arm(dataset, trace, connections)
        assert result.errors == 0, f"async arm errored: {result.summary()}"
        assert result.served == len(trace), f"async arm dropped: {result.summary()}"
        assert result.answers() == reference_answers, (
            f"answers changed at async connections={connections}")
        assert meta["connections"] >= connections, (
            f"pool failed to hold {connections} connections: {meta['pool']}")
        async_pools[connections] = meta["pool"]
        rows.append(arm_row("async", result, meta))

    table = rows_to_report(
        "S4_async_client",
        f"S4: Connection scaling sync vs async at {TARGET_QPS:.0f} QPS target "
        f"(2-shard short-circuit serving)",
        rows,
        columns=["client", "connections", "queries", "served", "rejected",
                 "errors", "queries_per_sec", "p50_ms", "p95_ms", "p99_ms"],
    )
    write_json_report("async_client", {
        "experiment": "S4_async_client",
        "smoke_mode": smoke_mode(),
        "target_qps": TARGET_QPS,
        "num_queries": len(trace),
        "dataset_size": len(dataset),
        "num_shards": bench_shards(2),
        "scatter_mode": bench_scatter_mode("short-circuit"),
        "sync_connection_ceiling": SYNC_CEILING,
        "async_connection_peak": max(
            pool["peak_open_connections"] for pool in async_pools.values()),
        "connection_ratio_vs_sync_ceiling": round(
            max(pool["peak_open_connections"] for pool in async_pools.values())
            / SYNC_CEILING, 2),
        "rows": rows,
    })
    print("\n" + table)

    # acceptance: the async client serves the full trace while holding a
    # connection population >= 4x the sync client's configured ceiling
    top = max(ASYNC_ARMS)
    assert top >= 4 * SYNC_CEILING
    top_row = next(row for row in rows
                   if row["client"] == "async" and row["connections"] >= top)
    assert top_row["served"] == len(trace) and top_row["errors"] == 0
    assert top_row["queries_per_sec"] > 0

    benchmark.pedantic(
        lambda: async_arm(dataset, trace, min(ASYNC_ARMS)), rounds=1, iterations=1
    )
