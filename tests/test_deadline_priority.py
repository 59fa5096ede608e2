"""Deadline- & priority-aware serving: EDF ordering, dead-work shedding.

The batcher's admission queue must spend every batch slot on the most
urgent work still worth doing: higher priority bands first, earliest
deadline first within a band, FIFO among peers.  Work that went dead while
queued — deadline expired, or the waiter's request timed out (the old
zombie-work 504 path) — is *shed* before execution: its future resolves
with the typed error (or a cancel) and both reasons are counted.  All
timing in these tests is gated on events, not sleeps racing the dispatcher.
"""

from __future__ import annotations

import logging
import threading
import time
from concurrent.futures import Future
from concurrent.futures import TimeoutError as FutureTimeoutError

import pytest

from repro.api.envelopes import QueryRequest
from repro.api.remote import RemoteGraphService
from repro.errors import DeadlineExceededError, WorkloadError
from repro.graph import molecule_dataset
from repro.graph.graph import Graph
from repro.isomorphism.base import MatchResult, SubgraphMatcher
from repro.isomorphism.vf2 import VF2Matcher
from repro.methods import DirectSIMethod
from repro.query_model import Query
from repro.runtime import GCConfig, GraphCacheSystem
from repro.server import QueryServer, RequestBatcher
from repro.workload import (
    generate_trace,
    parse_priority_mix,
    with_serving_fields,
)


@pytest.fixture(scope="module")
def dataset():
    return molecule_dataset(16, min_vertices=7, max_vertices=13, rng=77)


def wait_until(predicate, timeout: float = 10.0) -> bool:
    limit = time.monotonic() + timeout
    while time.monotonic() < limit:
        if predicate():
            return True
        time.sleep(0.01)
    return False


class GateMatcher(SubgraphMatcher):
    """VF2 behind a gate: blocks the dispatcher until the test releases it.

    ``entered`` fires when the first embedding test begins, so tests can
    build queue state *knowing* the head query is already executing.
    """

    name = "vf2+gate"

    def __init__(self) -> None:
        self._inner = VF2Matcher()
        self.entered = threading.Event()
        self.gate = threading.Event()

    def find_embedding(self, query: Graph, target: Graph) -> MatchResult:
        self.entered.set()
        assert self.gate.wait(30), "test never released the gate"
        return self._inner.find_embedding(query, target)


class FailingMatcher(GateMatcher):
    """Gate matcher whose queries fail once released — a late pipeline error."""

    name = "vf2+gate+fail"

    def find_embedding(self, query: Graph, target: Graph) -> MatchResult:
        self.entered.set()
        assert self.gate.wait(30), "test never released the gate"
        raise RuntimeError("pipeline blew up after the waiter left")


def spy_on_execution(system) -> list:
    """Record each executed query's ``metadata['tag']`` in dispatch order."""
    executed: list = []
    original = system.run_batch

    def recording(queries, *args, **kwargs):
        queries = list(queries)
        executed.extend(q.metadata.get("tag") for q in queries)
        return original(queries, *args, **kwargs)

    system.run_batch = recording
    return executed


def tagged(dataset, tag: str) -> Query:
    return Query(graph=dataset[0].copy(), metadata={"tag": tag})


class TestQueueOrdering:
    def test_priority_bands_then_edf_then_fifo(self, dataset):
        """Dispatch order: priority desc, deadline asc within a band, FIFO."""
        matcher = GateMatcher()
        method = DirectSIMethod(verifier=matcher)
        with GraphCacheSystem(dataset, GCConfig(cache_capacity=10, window_size=5),
                              method=method) as system:
            executed = spy_on_execution(system)
            batcher = RequestBatcher(system, max_batch_size=1,
                                     max_queue_depth=32)
            futures = [batcher.submit(tagged(dataset, "head"))]
            assert matcher.entered.wait(10)  # head is executing, queue is ours
            futures.append(batcher.submit(tagged(dataset, "low-late")))
            futures.append(batcher.submit(
                tagged(dataset, "low-soon"), deadline_seconds=30.0))
            futures.append(batcher.submit(tagged(dataset, "high"), priority=10))
            futures.append(batcher.submit(
                tagged(dataset, "mid"), deadline_seconds=60.0, priority=5))
            matcher.gate.set()
            for future in futures:
                future.result(timeout=30)
            batcher.close()
        assert executed == ["head", "high", "mid", "low-soon", "low-late"]

    def test_fifo_among_equal_priority_no_deadline(self, dataset):
        matcher = GateMatcher()
        method = DirectSIMethod(verifier=matcher)
        with GraphCacheSystem(dataset, GCConfig(cache_capacity=10, window_size=5),
                              method=method) as system:
            executed = spy_on_execution(system)
            batcher = RequestBatcher(system, max_batch_size=1,
                                     max_queue_depth=32)
            futures = [batcher.submit(tagged(dataset, "head"))]
            assert matcher.entered.wait(10)
            tags = [f"q{i}" for i in range(5)]
            futures += [batcher.submit(tagged(dataset, tag)) for tag in tags]
            matcher.gate.set()
            for future in futures:
                future.result(timeout=30)
            batcher.close()
        assert executed == ["head"] + tags

    def test_envelope_carries_its_own_deadline_and_priority(self, dataset):
        """A v2 QueryRequest's fields apply without explicit kwargs."""
        matcher = GateMatcher()
        method = DirectSIMethod(verifier=matcher)
        with GraphCacheSystem(dataset, GCConfig(cache_capacity=10, window_size=5),
                              method=method) as system:
            executed = spy_on_execution(system)
            batcher = RequestBatcher(system, max_batch_size=1,
                                     max_queue_depth=32)
            futures = [batcher.submit(tagged(dataset, "head"))]
            assert matcher.entered.wait(10)
            futures.append(batcher.submit(QueryRequest(
                graph=dataset[0].copy(), metadata={"tag": "background"})))
            futures.append(batcher.submit(QueryRequest(
                graph=dataset[0].copy(), metadata={"tag": "urgent"},
                priority=7, deadline_seconds=30.0)))
            matcher.gate.set()
            for future in futures:
                future.result(timeout=30)
            batcher.close()
        assert executed == ["head", "urgent", "background"]


class TestDeadlineShedding:
    def test_expired_entry_is_shed_not_executed(self, dataset):
        matcher = GateMatcher()
        method = DirectSIMethod(verifier=matcher)
        with GraphCacheSystem(dataset, GCConfig(cache_capacity=10, window_size=5),
                              method=method) as system:
            executed = spy_on_execution(system)
            batcher = RequestBatcher(system, max_batch_size=1,
                                     max_queue_depth=32)
            head = batcher.submit(tagged(dataset, "head"))
            assert matcher.entered.wait(10)
            doomed = batcher.submit(tagged(dataset, "doomed"),
                                    deadline_seconds=0.05, priority=100)
            safe = batcher.submit(tagged(dataset, "safe"))
            time.sleep(0.15)  # the doomed deadline expires while queued
            matcher.gate.set()
            with pytest.raises(DeadlineExceededError) as excinfo:
                doomed.result(timeout=30)
            head.result(timeout=30)
            safe.result(timeout=30)
            stats = batcher.stats()
            batcher.close()
        # never reached the engine: highest priority, yet shed at batch build
        assert executed == ["head", "safe"]
        assert excinfo.value.deadline_seconds == pytest.approx(0.05)
        assert stats.shed_expired == 1 and stats.shed_abandoned == 0
        assert stats.shed == 1
        assert stats.to_dict()["shed"] == 1
        assert stats.served == 2

    def test_generous_deadline_serves_normally(self, dataset):
        with GraphCacheSystem(dataset,
                              GCConfig(cache_capacity=10, window_size=5)) as system:
            batcher = RequestBatcher(system, max_batch_size=2, max_queue_depth=32)
            future = batcher.submit(Query(graph=dataset[0].copy()),
                                    deadline_seconds=60.0, priority=3)
            served = future.result(timeout=30)
            stats = batcher.stats()
            batcher.close()
        assert dataset[0].graph_id in served.report.answer
        assert stats.shed == 0 and stats.served == 1


class TestZombieWorkRegression:
    """The 504 path: an abandoned waiter's entry must die cheaply."""

    def test_abandon_during_head_batch_is_shed(self, dataset):
        matcher = GateMatcher()
        matcher.gate.set()  # two queries flow freely before the gate closes
        method = DirectSIMethod(verifier=matcher)
        with GraphCacheSystem(dataset, GCConfig(cache_capacity=10, window_size=5),
                              method=method) as system:
            batcher = RequestBatcher(system, max_batch_size=1, max_queue_depth=32)
            for _ in range(2):
                batcher.submit(Query(graph=dataset[1].copy())).result(timeout=30)
            matcher.gate.clear()
            matcher.entered.clear()
            head = batcher.submit(tagged(dataset, "head"))
            assert matcher.entered.wait(10)
            zombie = batcher.submit(tagged(dataset, "zombie"))
            with pytest.raises(FutureTimeoutError):
                zombie.result(timeout=0.05)
            # the waiter gives up while the head batch still runs
            assert batcher.abandon(zombie) is True
            matcher.gate.set()
            head.result(timeout=30)
            assert wait_until(lambda: batcher.stats().shed_abandoned == 1)
            assert zombie.cancelled()
            stats = batcher.stats()
            batcher.close()
        assert stats.shed == 1 and stats.served == 3

    def test_abandon_foreign_future_is_refused(self, dataset):
        with GraphCacheSystem(dataset,
                              GCConfig(cache_capacity=10, window_size=5)) as system:
            batcher = RequestBatcher(system, max_queue_depth=8)
            assert batcher.abandon(Future()) is False
            batcher.close()

    def test_abandoned_future_late_failure_is_logged(self, dataset, caplog):
        """Satellite: an abandoned entry that still fails leaves a trail."""
        matcher = FailingMatcher()
        method = DirectSIMethod(verifier=matcher)
        with GraphCacheSystem(dataset, GCConfig(cache_capacity=10, window_size=5),
                              method=method) as system:
            batcher = RequestBatcher(system, max_batch_size=1,
                                     max_queue_depth=8)
            request = QueryRequest(graph=dataset[0].copy(), request_id="zombie-1")
            future = batcher.submit(request)
            assert matcher.entered.wait(10)  # already inside a batch
            with caplog.at_level(logging.WARNING, logger="repro.server.batcher"):
                assert batcher.abandon(future) is True
                matcher.gate.set()
                assert wait_until(lambda: future.done())
            batcher.close()
        assert "zombie-1" in caplog.text
        assert "failed later in the pipeline" in caplog.text

    def test_http_504_sheds_and_counts(self, dataset):
        """End to end: timed-out request → 504, entry shed, counters surface."""
        matcher = GateMatcher()
        method = DirectSIMethod(verifier=matcher)
        with QueryServer(dataset, GCConfig(cache_capacity=10, window_size=5),
                         method=method, max_batch_size=1, max_queue_depth=32,
                         request_timeout_seconds=30.0) as server:
            head_answer: list = []
            def run_head():
                client = RemoteGraphService.for_server(server)
                head_answer.append(client.run(dataset[0].copy()).answer)
            head = threading.Thread(target=run_head, daemon=True)
            head.start()
            assert matcher.entered.wait(10)
            client = RemoteGraphService.for_server(server)
            status, payload = client.send(QueryRequest(
                graph=dataset[1].copy(), request_id="urgent-q",
                deadline_seconds=0.2))
            assert status == 504
            assert payload["error"]["code"] == "timeout"
            assert payload["request_id"] == "urgent-q"
            # the typed client raises the reconstructed deadline error
            with pytest.raises(DeadlineExceededError):
                client.run(QueryRequest(graph=dataset[1].copy(),
                                        deadline_seconds=0.2))
            matcher.gate.set()
            head.join(timeout=30)
            assert head_answer and dataset[0].graph_id in head_answer[0]
            assert wait_until(
                lambda: client.stats()["batcher"]["shed"] >= 2)
            stats = client.stats()["batcher"]
            assert stats["shed_expired"] + stats["shed_abandoned"] == stats["shed"]
            text = client.metrics_text()
        assert "gc_server_shed_total" in text
        assert 'outcome="timeout"' in text


class TestServingWorkloadHelpers:
    def test_parse_priority_mix(self):
        assert parse_priority_mix("0:0.8,10:0.2") == [(0, 0.8), (10, 0.2)]
        assert parse_priority_mix("5") == [(5, 1.0)]  # weight defaults to 1
        for bad in ("", "a:1", "1:zero", "3:-2", "2:0", "0:nan", "0:inf", "0:-inf"):
            with pytest.raises(WorkloadError):
                parse_priority_mix(bad)

    def test_with_serving_fields_passthrough(self, dataset):
        trace = generate_trace(dataset, 6, skew="uniform", seed=3)
        assert with_serving_fields(list(trace)) == list(trace)

    def test_with_serving_fields_is_deterministic(self, dataset):
        trace = generate_trace(dataset, 40, skew="uniform", seed=3)
        first = with_serving_fields(list(trace), deadline_seconds=1.5,
                                    priority_mix="0:0.8,10:0.2", seed=7)
        second = with_serving_fields(list(trace), deadline_seconds=1.5,
                                     priority_mix=[(0, 0.8), (10, 0.2)], seed=7)
        assert all(isinstance(r, QueryRequest) for r in first)
        assert [r.priority for r in first] == [r.priority for r in second]
        assert {r.priority for r in first} == {0, 10}
        assert all(r.deadline_seconds == 1.5 for r in first)
