"""S2 — Sharded serving: QPS and merge overhead at 1, 2 and 4 shards.

The headline benchmark for the scatter-gather subsystem: the same
verification-bound trace is replayed through the HTTP server while the
dataset is partitioned across 1 (single system), 2 and 4 shards.  Each
query's candidate verification splits across the shards and runs
concurrently (sleep-simulated per-test latency, as if data graphs were
disk/network-resident), so per-query latency — and with it served QPS —
should scale with the shard count while answers stay bit-identical to
single-system serving.

Merge overhead is accounted explicitly: the sharded engine books gather +
merge time as its own ``merge`` pipeline stage, which this benchmark reads
back from the server's ``/metrics`` stage breakdown and reports both as
total milliseconds and as a share of summed stage time.

Smoke mode (``run_all.py --smoke`` / ``GC_BENCH_SMOKE=1``) shrinks the trace
for CI perf tracking without changing the scenario's shape.
"""

from __future__ import annotations

import pytest

from repro.api import RemoteGraphService
from repro.methods import DirectSIMethod
from repro.runtime import GCConfig
from repro.server import QueryServer
from repro.sharding import MERGE_STAGE
from repro.workload import WorkloadGenerator, WorkloadMix, replay_trace

from benchmarks.harness import (
    SimulatedLatencyMatcher,
    rows_to_report,
    smoke_mode,
    smoke_scaled,
    standard_dataset,
    write_json_report,
)

SHARD_COUNTS = [1, 2, 4]
SHARD_POLICY = "size-balanced"  # keeps per-shard verification work comparable
CLIENT_THREADS = 8
BATCH_SIZE = 4
#: Per-test simulated verification latency.  Higher than S1's 0.8ms so the
#: scenario stays wait-dominated even on small CI machines: scatter-gather
#: overlaps the *waiting* (disk/network-resident data graphs); the CPU part
#: of a test cannot parallelise on a 1-2 core runner.
TEST_LATENCY = 0.0015


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


def serve_trace(dataset, trace, num_shards: int):
    """One served replay at ``num_shards``; fresh server + system per run."""
    config = GCConfig(cache_capacity=20, window_size=5,
                      num_shards=num_shards, shard_policy=SHARD_POLICY)
    server = QueryServer(
        dataset,
        config,
        # a factory: with shards each partition builds its own Method M
        method=lambda: DirectSIMethod(verifier=SimulatedLatencyMatcher(TEST_LATENCY)),
        max_batch_size=BATCH_SIZE,
        max_queue_depth=512,
    )
    with server:
        client = RemoteGraphService.for_server(server)
        result = replay_trace(client, trace, num_threads=CLIENT_THREADS)
        metrics = client.metrics().to_wire()
    return result, metrics


def merge_overhead(metrics: dict) -> tuple[float, float]:
    """(total merge seconds, merge share of summed stage time) from /metrics."""
    rows = metrics["statistics"]["stage_breakdown"]
    for row in rows:
        if row["stage"] == MERGE_STAGE:
            return row["total_seconds"], row["share"]
    return 0.0, 0.0


def test_bench_shard_scaling(benchmark, scenario):
    """Served QPS at 1/2/4 shards; answers identical; merge cost accounted."""
    dataset, trace = scenario

    rows = []
    reference_answers = None
    baseline_qps = None
    for num_shards in SHARD_COUNTS:
        result, metrics = serve_trace(dataset, trace, num_shards)
        assert result.served == len(trace), (
            f"dropped queries at shards={num_shards}: {result.summary()}"
        )
        if reference_answers is None:
            reference_answers = result.answers()
        assert result.answers() == reference_answers, (
            f"answers changed at shards={num_shards}"
        )
        if num_shards == 1:
            baseline_qps = result.achieved_qps
        merge_seconds, merge_share = merge_overhead(metrics)
        tails = result.latency_percentiles()
        rows.append({
            "num_shards": num_shards,
            "queries_per_sec": round(result.achieved_qps, 1),
            "elapsed_seconds": round(result.elapsed_seconds, 4),
            "p50_ms": round(tails["p50"] * 1000.0, 2),
            "p95_ms": round(tails["p95"] * 1000.0, 2),
            "p99_ms": round(tails["p99"] * 1000.0, 2),
            "merge_ms_total": round(merge_seconds * 1000.0, 3),
            "merge_share_pct": round(merge_share * 100.0, 2),
            "speedup_vs_1_shard": round(result.achieved_qps / baseline_qps, 2),
        })

    table = rows_to_report(
        "S2_shard_scaling",
        "S2: Served throughput vs shard count "
        "(verification-bound, 8 closed-loop clients, batch 4)",
        rows,
        columns=["num_shards", "queries_per_sec", "elapsed_seconds",
                 "p50_ms", "p95_ms", "p99_ms", "merge_ms_total",
                 "merge_share_pct", "speedup_vs_1_shard"],
    )
    write_json_report("shard_scaling", {
        "experiment": "S2_shard_scaling",
        "smoke_mode": smoke_mode(),
        "num_queries": len(trace),
        "dataset_size": len(dataset),
        "client_threads": CLIENT_THREADS,
        "batch_size": BATCH_SIZE,
        "shard_policy": SHARD_POLICY,
        "test_latency_seconds": TEST_LATENCY,
        "rows": rows,
    })
    print("\n" + table)

    # acceptance: scatter-gather actually scales the verification-bound
    # scenario, and the merge stage stays a small fraction of stage time
    four = next(row for row in rows if row["num_shards"] == 4)
    assert four["speedup_vs_1_shard"] >= 1.2, (
        f"expected >=1.2x served QPS at 4 shards, got {four['speedup_vs_1_shard']}x"
    )
    assert four["merge_share_pct"] < 20.0, (
        f"merge overhead unexpectedly dominant: {four['merge_share_pct']}%"
    )

    benchmark.pedantic(
        lambda: serve_trace(dataset, trace, 4), rounds=1, iterations=1
    )
