"""Trace generation and replay: determinism, round-trips, open-loop latency
timed from the due time, a thousand connections.

The load generator's value for benchmarking depends on traces being exactly
reproducible: the same seed must yield the same trace (per skew, including
the drifting popularity flip), and a trace saved to JSON must replay the
same queries after loading.  The replay itself holds one keep-alive
connection per client thread; at a thousand threads released in one burst
against a 2-shard server it must still serve everything and answer exactly
as an 8-thread replay does.
"""

from __future__ import annotations

import dataclasses
import time

import pytest

from repro.api.envelopes import QueryResponse
from repro.api.remote import RemoteGraphService
from repro.errors import WorkloadError
from repro.graph import molecule_dataset
from repro.query_model import QueryType
from repro.runtime import GCConfig
from repro.server import QueryServer
from repro.workload import STANDARD_MIXES, TRACE_SKEWS, generate_trace, replay_trace
from repro.workload.replay import _skew_mix


@pytest.fixture(scope="module")
def dataset():
    return molecule_dataset(12, min_vertices=7, max_vertices=12, rng=31)


def trace_fingerprint(trace) -> list:
    """Everything that must be identical across regenerations."""
    return [
        (query.query_type.value, query.metadata.get("mode"),
         query.metadata.get("pool_index"), query.graph.to_dict())
        for query in trace
    ]


class TestDeterminism:
    @pytest.mark.parametrize("skew", TRACE_SKEWS)
    def test_same_seed_same_trace(self, dataset, skew):
        first = generate_trace(dataset, 60, skew=skew, seed=11)
        second = generate_trace(dataset, 60, skew=skew, seed=11)
        assert trace_fingerprint(first) == trace_fingerprint(second)

    @pytest.mark.parametrize("skew", ["zipfian", "drifting"])
    def test_different_seed_different_trace(self, dataset, skew):
        first = generate_trace(dataset, 60, skew=skew, seed=11)
        second = generate_trace(dataset, 60, skew=skew, seed=12)
        assert trace_fingerprint(first) != trace_fingerprint(second)

    def test_mixed_trace_deterministic_and_interleaved(self, dataset):
        first = generate_trace(dataset, 50, skew="drifting", query_type="mixed", seed=4)
        second = generate_trace(dataset, 50, skew="drifting", query_type="mixed", seed=4)
        assert trace_fingerprint(first) == trace_fingerprint(second)
        types = [query.query_type for query in first]
        assert types[0] is QueryType.SUBGRAPH and types[1] is QueryType.SUPERGRAPH
        assert {t for t in types} == {QueryType.SUBGRAPH, QueryType.SUPERGRAPH}
        assert len(first) == 50


class TestSkewMixes:
    @pytest.mark.parametrize("query_type", list(QueryType))
    @pytest.mark.parametrize("skew, standard", [("uniform", "uniform"),
                                                ("zipfian", "popular"),
                                                ("drifting", "drift")])
    def test_each_skew_is_its_standard_mix(self, skew, standard, query_type):
        assert _skew_mix(skew, query_type) == dataclasses.replace(
            STANDARD_MIXES[standard], query_type=query_type)


class TestSkewShape:
    def test_zipfian_concentrates_popular_patterns(self, dataset):
        """Zipf-skewed traces hammer the head of the pool; uniform does not."""
        zipf = generate_trace(dataset, 300, skew="zipfian", seed=8)
        head = sum(1 for q in zipf
                   if q.metadata.get("pool_index") in (0, 1, 2))
        assert head > 300 * 3 / 20  # far above the uniform expectation

    def test_drifting_flips_popularity_halfway(self, dataset):
        trace = generate_trace(dataset, 400, skew="drifting", seed=8)
        pool_size = trace.metadata["pool_size"]
        first = [q.metadata["pool_index"] for q in trace[:200] if "pool_index" in q.metadata]
        second = [q.metadata["pool_index"] for q in trace[200:] if "pool_index" in q.metadata]
        # head of the pool dominates early, tail dominates after the drift
        assert sum(first) / len(first) < sum(second) / len(second)
        assert any(index > pool_size // 2 for index in second)

    @pytest.mark.parametrize("skew", ["bimodal", "popular"])  # a mix name is no skew
    def test_unknown_skew_rejected(self, dataset, skew):
        with pytest.raises(WorkloadError, match=f"unknown trace skew '{skew}'"):
            generate_trace(dataset, 10, skew=skew)


class TestRoundTrip:
    @pytest.mark.parametrize("skew", ["zipfian", "drifting"])
    def test_save_load_preserves_trace(self, dataset, tmp_path, skew):
        trace = generate_trace(dataset, 40, skew=skew, query_type="mixed", seed=17)
        path = tmp_path / f"{skew}.json"
        trace.save(path)
        from repro.workload import Workload

        loaded = Workload.load(path)
        assert loaded.name == trace.name
        assert loaded.metadata["skew"] == skew
        assert trace_fingerprint(loaded) == trace_fingerprint(trace)

    def test_loaded_trace_replays_identically(self, dataset, tmp_path):
        """Save → load → run both in process: identical answers per position."""
        from repro.runtime import GCConfig, GraphCacheSystem
        from repro.workload import Workload

        trace = generate_trace(dataset, 30, skew="zipfian", seed=23)
        path = tmp_path / "trace.json"
        trace.save(path)
        loaded = Workload.load(path)

        def answers(workload):
            with GraphCacheSystem(dataset, GCConfig(cache_capacity=10, window_size=5)) as system:
                return [frozenset(r.answer) for r in system.run_queries(list(workload))]

        assert answers(trace) == answers(loaded)


class StallingService:
    """Answers every request at once, except one that takes ``stall`` seconds."""

    def __init__(self, stall_at: int, stall: float) -> None:
        self.stall_at, self.stall = stall_at, stall
        self.sent = 0

    def send(self, request):
        if self.sent == self.stall_at:
            time.sleep(self.stall)
        self.sent += 1
        return 200, QueryResponse(answer=frozenset()).to_wire()

    def close(self) -> None:
        pass


class TestOpenLoopLatency:
    def test_a_stall_is_charged_to_every_request_due_during_it(self, dataset):
        """No coordinated omission: latency runs from the due time, not the send."""
        qps, stall_at, stall = 100.0, 4, 0.2
        trace = generate_trace(dataset, 30, seed=5)
        result = replay_trace(StallingService(stall_at, stall), trace,
                              target_qps=qps, num_threads=1)
        assert result.served == len(trace)
        stall_ends = stall_at / qps + stall  # at the earliest, after the start
        # requests 5-23 fall due while request 4 stalls
        for event in result.events[stall_at + 1:stall_at + round(stall * qps)]:
            # it could not be sent before the stall ended
            assert event.latency_seconds >= stall_ends - event.index / qps - 1e-3


class TestThousandConnections:
    """The acceptance arm: 1000 client threads, one connection each, one burst."""

    def test_sustains_1000_connections_with_identical_answers(self):
        # deliberately tiny graphs: this arm is about transport concurrency,
        # not verification weight
        dataset = molecule_dataset(12, min_vertices=6, max_vertices=10, rng=29)
        trace = generate_trace(dataset, 1000, skew="zipfian",
                               query_type="mixed", seed=37)

        def replay(num_threads, target_qps=None):
            config = GCConfig(cache_capacity=12, window_size=4, num_shards=2,
                              scatter_mode="short-circuit")
            with QueryServer(dataset, config, max_batch_size=8,
                             max_queue_depth=2048,
                             request_timeout_seconds=120.0) as server:
                client = RemoteGraphService.for_server(server, timeout=120.0)
                return replay_trace(client, trace, target_qps=target_qps,
                                    num_threads=num_threads)

        reference = replay(8)
        # every query released at once: 1000 threads each hold a keep-alive
        # connection and send together
        burst = replay(1000, target_qps=1_000_000.0)
        for result in (reference, burst):
            assert result.served == len(trace)
            assert result.errors == 0
            assert result.rejected == 0
        assert burst.answers() == reference.answers()
