"""S1 — Served overload: bounded admission under an open loop above capacity.

The trace is replayed through the HTTP server at a fixed target QPS far
above what the (simulated-latency) verifier can serve, against a small
admission queue: backpressure must reject (429) instead of queueing without
bound, and every query is either served or rejected — none lost, none failed.

Smoke mode (``run_all.py --smoke`` / ``GC_BENCH_SMOKE=1``) shrinks the trace
for CI perf tracking without changing the scenario's shape.
"""

from __future__ import annotations

import pytest

from repro.api import RemoteGraphService
from repro.methods import DirectSIMethod
from repro.runtime import GCConfig
from repro.server import QueryServer
from repro.workload import WorkloadGenerator, WorkloadMix, replay_trace

from benchmarks.harness import (
    SimulatedLatencyMatcher,
    rows_to_report,
    smoke_mode,
    smoke_scaled,
    standard_dataset,
    write_json_report,
)

CLIENT_THREADS = 8
#: Per-test simulated verification latency: keeps the server's capacity far
#: below the offered load on any machine.
TEST_LATENCY = 0.0008
OFFERED_QPS = 2000.0


@pytest.fixture(scope="module")
def scenario():
    dataset = standard_dataset(smoke_scaled(40, 24), seed=91,
                               min_vertices=10, max_vertices=20)
    # fresh-heavy mix => few cache hits => nearly every candidate is verified
    mix = WorkloadMix(fresh_fraction=0.7, repeat_fraction=0.1,
                      shrink_fraction=0.1, extend_fraction=0.1,
                      min_pattern_vertices=5, max_pattern_vertices=8)
    trace = WorkloadGenerator(dataset, rng=92).generate(
        smoke_scaled(48, 24), mix=mix, name="verification-bound"
    )
    return dataset, trace


def serve_overloaded(dataset, trace):
    """One open-loop replay above capacity; fresh server + system."""
    method = DirectSIMethod(verifier=SimulatedLatencyMatcher(TEST_LATENCY))
    server = QueryServer(
        dataset,
        GCConfig(cache_capacity=20, window_size=5),
        method=method,
        max_batch_size=2,
        max_queue_depth=4,
    )
    with server:
        client = RemoteGraphService.for_server(server)
        return replay_trace(client, trace, target_qps=OFFERED_QPS,
                            num_threads=CLIENT_THREADS)


def test_bench_server_overload(benchmark, scenario):
    """Offered load far above capacity, tiny admission queue: bounded 429s."""
    dataset, trace = scenario

    overload = serve_overloaded(dataset, trace)
    row = {
        "served": overload.served,
        "rejected": overload.rejected,
        "errors": overload.errors,
        "rejection_rate": round(overload.rejected / len(trace), 3),
        "achieved_qps": round(overload.achieved_qps, 1),
    }
    assert overload.errors == 0
    assert overload.served + overload.rejected == len(trace)

    table = rows_to_report(
        "S1_server_overload",
        f"S1: Served overload (open loop at {OFFERED_QPS:.0f} q/s, queue depth 4)",
        [row],
        columns=["served", "rejected", "errors", "rejection_rate", "achieved_qps"],
    )
    write_json_report("server_throughput", {
        "experiment": "S1_server_overload",
        "smoke_mode": smoke_mode(),
        "num_queries": len(trace),
        "dataset_size": len(dataset),
        "client_threads": CLIENT_THREADS,
        "test_latency_seconds": TEST_LATENCY,
        "overload": row,
    })
    print("\n" + table)

    benchmark.pedantic(
        lambda: serve_overloaded(dataset, trace), rounds=1, iterations=1
    )
