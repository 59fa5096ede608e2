"""Async client tests: pooling, typed errors, and the 1000-connection arm.

The headline acceptance test lives here: the asyncio load generator holds
**≥ 1000 concurrent open-loop connections in a single process** against a
2-shard short-circuit server and returns answer sets identical to the sync
thread-per-connection client on the same trace — the differential arm that
makes the async path trustworthy, not just fast.  The thread-based client
cannot even attempt this shape (1000 OS threads); the pool holds 1000
keep-alive sockets on one event loop while the open-loop schedule
multiplexes the trace over them.
"""

from __future__ import annotations

import asyncio

import pytest

from repro.api.aio import AsyncRemoteGraphService, replay_trace_async
from repro.api.envelopes import QueryRequest
from repro.api.remote import RemoteGraphService
from repro.errors import ProtocolError
from repro.graph import molecule_dataset
from repro.runtime import GCConfig
from repro.server import QueryServer
from repro.workload import generate_trace, replay_trace

TARGET_CONNECTIONS = 1000


@pytest.fixture(scope="module")
def dataset():
    # deliberately tiny graphs: the 1000-connection arm is about transport
    # concurrency, not verification weight
    return molecule_dataset(12, min_vertices=6, max_vertices=10, rng=29)


@pytest.fixture(scope="module")
def short_trace(dataset):
    return generate_trace(dataset, 30, skew="zipfian", query_type="mixed", seed=31)


def sharded_config() -> GCConfig:
    return GCConfig(cache_capacity=12, window_size=4, num_shards=2,
                    scatter_mode="short-circuit")


def run(coro):
    return asyncio.run(coro)


def clone(query) -> QueryRequest:
    return QueryRequest(graph=query.graph.copy(), query_type=query.query_type)


class TestAsyncClientBasics:
    def test_run_over_one_keep_alive_connection(self, dataset, short_trace):
        with QueryServer(dataset, sharded_config(), max_queue_depth=128) as server:

            async def go():
                async with AsyncRemoteGraphService.for_server(
                        server, max_connections=8) as client:
                    responses = [await client.run(clone(q)) for q in short_trace]
                    health = await client.health()
                    metrics = await client.metrics()
                    return responses, health, metrics, client.pool_stats()

            responses, health, metrics, pool = run(go())
        assert health["status"] == "ok"
        assert metrics.aggregate["num_queries"] == len(short_trace)
        assert all(r.batch_size >= 1 for r in responses)
        # sequential requests reuse one keep-alive connection
        assert pool["peak_open_connections"] == 1
        assert pool["reconnects"] == 0

    def test_matches_sync_client(self, dataset, short_trace):
        with QueryServer(dataset, sharded_config(), max_queue_depth=128) as server:
            sync_answers = [
                RemoteGraphService.for_server(server).run(clone(q)).answer
                for q in short_trace
            ]

            async def go():
                async with AsyncRemoteGraphService.for_server(
                        server, max_connections=16) as client:
                    batch = await client.run_batch([clone(q) for q in short_trace])
                    return batch

            batch = run(go())
        assert batch.ok
        assert [r.answer for r in batch] == sync_answers

    def test_typed_errors_cross_the_wire(self, dataset):
        with QueryServer(dataset, sharded_config(), max_queue_depth=128) as server:

            async def go():
                async with AsyncRemoteGraphService.for_server(server) as client:
                    status, payload = await client.request(
                        "POST", "/query", {"version": 2, "query": {}})
                    return status, payload

            status, payload = run(go())
        assert status == 400
        assert payload["error"]["code"] == "protocol"

    def test_recording_through_the_async_client(self, dataset, short_trace):
        with QueryServer(dataset, sharded_config(), max_queue_depth=128) as server:

            async def go():
                async with AsyncRemoteGraphService.for_server(server) as client:
                    await client.start_recording(name="async-capture")
                    for query in short_trace[:5]:
                        await client.run(clone(query))
                    return await client.stop_recording()

            recorded = run(go())
        assert len(recorded) == 5
        assert recorded.metadata["recorded"] is True

    def test_constructor_validation(self):
        with pytest.raises(ProtocolError):
            AsyncRemoteGraphService("localhost", 1, trace_sample_rate=2.0)


class TestThousandConnections:
    """The acceptance arm: ≥1000 open-loop connections, answers unchanged."""

    def test_sustains_1000_connections_with_identical_answers(self, dataset):
        trace = generate_trace(dataset, TARGET_CONNECTIONS, skew="zipfian",
                               query_type="mixed", seed=37)

        # reference arm: the sync thread-per-connection client (8 threads —
        # its natural operating range) on a fresh server
        with QueryServer(dataset, sharded_config(), max_batch_size=8,
                         max_queue_depth=2048) as server:
            sync_result = replay_trace(RemoteGraphService.for_server(server),
                                       trace, num_threads=8)
        assert sync_result.served == len(trace)
        assert sync_result.errors == 0

        # async arm: 1000 pre-opened keep-alive connections held for the
        # whole run, every query released open-loop in one burst so the
        # in-flight population actually exercises the pool
        with QueryServer(dataset, sharded_config(), max_batch_size=8,
                         max_queue_depth=2048,
                         request_timeout_seconds=120.0) as server:

            async def go():
                async with AsyncRemoteGraphService.for_server(
                        server, max_connections=TARGET_CONNECTIONS,
                        timeout=120.0) as client:
                    result = await replay_trace_async(
                        client, trace, target_qps=1_000_000.0,
                        warm_connections=TARGET_CONNECTIONS,
                    )
                    return result, client.pool_stats()

            async_result, pool = run(go())

        # the generator really held >= 1000 concurrent connections
        assert pool["peak_open_connections"] >= TARGET_CONNECTIONS
        assert async_result.num_connections >= TARGET_CONNECTIONS
        # in-flight counts requests holding a connection, never pool waiters
        assert pool["peak_in_flight"] <= pool["max_connections"]
        # nothing dropped, nothing errored, and — the differential claim —
        # the answer sets are identical to the sync client's, per position
        assert async_result.served == len(trace)
        assert async_result.errors == 0
        assert async_result.rejected == 0
        assert async_result.answers() == sync_result.answers()
