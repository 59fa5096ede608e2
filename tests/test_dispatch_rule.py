"""The dispatch rule: a batch is the head plus whatever is already queued.

The dispatcher blocks for the head of the admission queue, takes up to
``max_batch_size - 1`` more entries that are *already* there, and runs the
batch.  It never waits for stragglers, so a lone query on an idle server is
served on arrival, and batches form only under backlog.  These tests hold
no timing assumptions beyond "a dispatch that never waits takes < 5 ms":
backlog is built behind a gated dispatcher (:mod:`tests.gated`).
"""

from __future__ import annotations

import pytest

from repro.api.envelopes import QueryRequest
from repro.graph import molecule_dataset
from repro.query_model import Query
from repro.runtime import GCConfig, GraphCacheSystem
from repro.server import QueryServer, RequestBatcher
from repro.server.batcher import _PendingQueue
from tests.gated import GatedDispatcher


@pytest.fixture(scope="module")
def dataset():
    return molecule_dataset(16, min_vertices=7, max_vertices=13, rng=77)


def config() -> GCConfig:
    return GCConfig(cache_capacity=10, window_size=5)


class TestServeOnArrival:
    def test_lone_query_on_an_idle_batcher_is_not_held(self, dataset, monkeypatch):
        """The dispatcher never waits with a timeout, and an idle batcher runs
        a lone query without the old 5 ms coalescing wait."""
        calls = []
        get = _PendingQueue.get

        def spy(self, *args, **kwargs):
            calls.append((args, kwargs))
            return get(self, *args, **kwargs)

        monkeypatch.setattr(_PendingQueue, "get", spy)
        with GraphCacheSystem(dataset, config()) as system:
            batcher = RequestBatcher(system)
            try:
                served = [batcher.submit(Query(graph=dataset[i].copy())).result(timeout=30)
                          for i in range(5)]
            finally:
                batcher.close()
        assert [item.batch_size for item in served] == [1] * 5
        assert min(item.queue_seconds for item in served) < 0.005
        assert calls and all(call == ((), {}) for call in calls)

    def test_a_batch_is_the_backlog_in_priority_order(self, dataset):
        """What queued behind a busy dispatcher leaves in one batch, most
        urgent first: priority band, then earliest deadline, then FIFO."""
        with GraphCacheSystem(dataset, config()) as system:
            gate = GatedDispatcher(system)
            batcher = RequestBatcher(system, max_batch_size=8)
            try:
                plug = gate.plug(batcher, Query(graph=dataset[0].copy()))
                submitted = {
                    "low": batcher.submit(QueryRequest(graph=dataset[1].copy())),
                    "late": batcher.submit(QueryRequest(graph=dataset[2].copy(),
                                                        deadline_seconds=60.0)),
                    "soon": batcher.submit(QueryRequest(graph=dataset[3].copy(),
                                                        deadline_seconds=30.0)),
                    "high": batcher.submit(QueryRequest(graph=dataset[4].copy(),
                                                        priority=2)),
                }
                gate.release()
                plug.result(timeout=30)
                served = {tag: future.result(timeout=30)
                          for tag, future in submitted.items()}
            finally:
                batcher.close()
        order = [served[tag].report.query.query_id for tag in ("high", "soon", "late", "low")]
        assert [[q.query_id for q in batch] for batch in gate.batches[1:]] == [order]
        assert {item.batch_size for item in served.values()} == {4}


class TestTheTimerIsGone:
    def test_batcher_rejects_max_delay_seconds(self, dataset):
        with GraphCacheSystem(dataset, config()) as system:
            with pytest.raises(TypeError, match="max_delay_seconds"):
                RequestBatcher(system, max_delay_seconds=0.005)

    def test_server_rejects_max_delay_seconds(self, dataset):
        with pytest.raises(TypeError, match="max_delay_seconds"):
            QueryServer(dataset, config(), max_delay_seconds=0.005)
