"""Differential arm: sync client ≡ async client ≡ in-process, one API.

The service-boundary counterpart of the sharding differential suites: the
same 200-query mixed sub/supergraph trace is executed through every
:class:`GraphService` backend —

* ``local``        — :class:`LocalGraphService` over the in-process engine;
* ``remote-sync``  — :class:`RemoteGraphService` against a live server
  (thread-per-connection);
* ``remote-async`` — :class:`AsyncRemoteGraphService` against a live server
  (pooled asyncio connections, concurrent in-flight queries);

— and the per-position answer sets must be byte-identical across all three,
on both the unsharded and the 2-shard short-circuit configurations.  The
failure mode this guards: a transport or envelope bug silently changing
(or reordering) answers would otherwise masquerade as a perf quirk.
"""

from __future__ import annotations

import asyncio

import pytest

from repro.api.aio import AsyncRemoteGraphService, replay_trace_async
from repro.api.envelopes import QueryRequest
from repro.api.remote import RemoteGraphService
from repro.api.service import LocalGraphService
from repro.graph import molecule_dataset
from repro.runtime import GCConfig
from repro.server import QueryServer
from repro.workload import generate_trace, replay_trace

from tests.differential import diff_answers, ArmResult

NUM_QUERIES = 200


@pytest.fixture(scope="module")
def dataset():
    return molecule_dataset(40, min_vertices=8, max_vertices=18, rng=41)


@pytest.fixture(scope="module")
def trace(dataset):
    return generate_trace(dataset, NUM_QUERIES, skew="zipfian",
                          query_type="mixed", seed=43)


def config(**overrides) -> GCConfig:
    payload = GCConfig(cache_capacity=20, window_size=5).to_dict()
    payload.update(overrides)
    return GCConfig.from_dict(payload)


def clones(trace) -> list[QueryRequest]:
    return [QueryRequest(graph=q.graph.copy(), query_type=q.query_type)
            for q in trace]


def run_local_arm(dataset, trace, cfg) -> ArmResult:
    with LocalGraphService(dataset, cfg) as service:
        batch = service.run_batch(clones(trace)).raise_first()
        return ArmResult(name="local", answers=[r.answer for r in batch])


def run_sync_arm(dataset, trace, cfg, num_threads=4) -> ArmResult:
    with QueryServer(dataset, cfg, max_batch_size=4,
                     max_queue_depth=max(256, 2 * len(trace))) as server:
        client = RemoteGraphService.for_server(server)
        result = replay_trace(client, trace, num_threads=num_threads)
    assert result.served == len(trace), (
        f"sync arm dropped queries: {result.summary()}")
    return ArmResult(
        name=f"remote-sync(threads={num_threads})",
        answers=[frozenset(answer) for answer in result.answers()],
    )


def run_async_arm(dataset, trace, cfg, connections=100) -> ArmResult:
    with QueryServer(dataset, cfg, max_batch_size=4,
                     max_queue_depth=max(256, 2 * len(trace))) as server:

        async def go():
            async with AsyncRemoteGraphService.for_server(
                    server, max_connections=connections) as client:
                return await replay_trace_async(client, trace,
                                                warm_connections=connections)

        result = asyncio.run(go())
    assert result.served == len(trace), (
        f"async arm dropped queries: {result.summary()}")
    return ArmResult(
        name=f"remote-async(connections={connections})",
        answers=[frozenset(answer) for answer in result.answers()],
    )


def assert_arms_identical(reference: ArmResult, *others: ArmResult) -> None:
    for other in others:
        diff = diff_answers(reference, other)
        assert diff is None, diff


def test_differential_unsharded(dataset, trace):
    """local ≡ sync ≡ async on the single-system engine."""
    local = run_local_arm(dataset, trace, config())
    sync = run_sync_arm(dataset, trace, config())
    async_ = run_async_arm(dataset, trace, config())
    assert_arms_identical(local, sync, async_)


def test_differential_sharded_short_circuit(dataset, trace):
    """local ≡ sync ≡ async on the 2-shard short-circuit engine.

    This is the configuration the async acceptance criterion names: the
    envelope path must not interfere with scatter planning, shard merge or
    summary-driven pruning.
    """
    cfg = config(num_shards=2, scatter_mode="short-circuit")
    local = run_local_arm(dataset, trace, cfg)
    sync = run_sync_arm(dataset, trace, cfg)
    async_ = run_async_arm(dataset, trace, cfg)
    assert_arms_identical(local, sync, async_)
