"""Bounded state: statistics are running sums, so nothing grows per query.

A long-lived server or shard worker answers queries for days; the
Statistics Manager and the ``/metrics`` payload must therefore stay the
same size however many queries have been served.  Each check reads once
after a few queries and again after ten times as many (an exact-hit-heavy
trace, so the extra queries are cheap), and allows only the width of the
numbers to differ — a per-query log would add hundreds of bytes per query.
"""

from __future__ import annotations

import http.client
import json
import pickle

import pytest

from repro.api import MetricsSnapshot, RemoteGraphService
from repro.graph import molecule_dataset
from repro.query_model import Query
from repro.runtime import GCConfig, GraphCacheSystem
from repro.server import QueryServer
from repro.workload import generate_trace

FIRST_READ = 30
SECOND_READ = 10 * FIRST_READ
#: Room for counters and seconds printed with more digits at the second read.
DIGIT_SLACK_BYTES = 64


@pytest.fixture(scope="module")
def dataset():
    return molecule_dataset(12, min_vertices=6, max_vertices=10, rng=41)


@pytest.fixture(scope="module")
def trace(dataset):
    """A few distinct patterns repeated: after the first window, exact hits."""
    pool = list(generate_trace(dataset, 6, query_type="mixed", seed=42))
    return [pool[position % len(pool)] for position in range(SECOND_READ)]


def fresh(queries):
    return [Query(graph=query.graph.copy(), query_type=query.query_type) for query in queries]


def config():
    return GCConfig(cache_capacity=8, window_size=2)


def manager_state_bytes(manager) -> int:
    state = {name: value for name, value in vars(manager).items() if name != "_lock"}
    return len(pickle.dumps(state))


def metrics_bytes(system) -> int:
    return len(json.dumps(MetricsSnapshot.from_system(system).to_wire()).encode())


def test_in_process_metrics_and_statistics_stay_flat(dataset, trace):
    queries = fresh(trace)
    with GraphCacheSystem(dataset, config()) as system:
        system.run_queries(queries[:FIRST_READ])
        first_metrics = metrics_bytes(system)
        first_state = manager_state_bytes(system.statistics)
        reports = system.run_queries(queries[FIRST_READ:])
        assert sum(report.exact_hit_entry is not None for report in reports) > len(reports) // 2
        assert system.aggregate().num_queries == SECOND_READ
        assert abs(metrics_bytes(system) - first_metrics) <= DIGIT_SLACK_BYTES
        assert abs(manager_state_bytes(system.statistics) - first_state) <= DIGIT_SLACK_BYTES


def test_served_metrics_body_stays_flat(dataset, trace):
    queries = fresh(trace)
    with QueryServer(dataset, config()) as server:
        client = RemoteGraphService.for_server(server)

        def metrics_body() -> bytes:
            connection = http.client.HTTPConnection("127.0.0.1", server.port, timeout=30)
            try:
                connection.request("GET", "/metrics")
                response = connection.getresponse()
                assert response.status == 200
                return response.read()
            finally:
                connection.close()

        for query in queries[:FIRST_READ]:
            client.run(query)
        first = metrics_body()
        for query in queries[FIRST_READ:]:
            client.run(query)
        second = metrics_body()
        client.close()
    assert json.loads(second)["statistics"]["num_queries"] == SECOND_READ
    assert abs(len(second) - len(first)) <= DIGIT_SLACK_BYTES
