"""S3 — Short-circuit scatter: fan-out and served QPS on a skewed trace.

The headline benchmark for the scatter planner: a label-clustered dataset
(each cluster draws from a private label alphabet and hash-routes onto its
own shard — the NeedleTail-style locality regime) is served at N shards
while a zipfian-skewed mixed trace is replayed through the HTTP server
twice: once with PR 3's full scatter (every query hits every shard) and
once with ``scatter_mode="short-circuit"`` (the planner consults per-shard
feature/size summaries and skips shards that provably cannot contribute).
A third arm stacks ``admission_mode="cost-based"`` on top, so the number
shows the whole PR 4 serving configuration.

Reported per arm: served QPS (and the delta vs full scatter), p95 latency,
mean scatter fan-out and skip rate from the server's ``/metrics``.  The
acceptance assertions lock the two headline claims: short-circuit answers
stay identical to full scatter, and mean fan-out is *strictly below* the
shard count on the skewed trace (pruning really happened).

``run_all.py --smoke --shards 2 --scatter short-circuit`` (CI) shrinks the
trace and pins the shard count via ``GC_BENCH_SHARDS``/``GC_BENCH_SCATTER``;
locally the benchmark defaults to 4 shards.
"""

from __future__ import annotations

import pytest

from repro.api import RemoteGraphService
from repro.graph import label_clustered_dataset
from repro.methods import DirectSIMethod
from repro.runtime import GCConfig
from repro.server import QueryServer
from repro.workload import generate_trace, replay_trace

from benchmarks.harness import (
    SimulatedLatencyMatcher,
    bench_scatter_mode,
    bench_shards,
    rows_to_report,
    smoke_scaled,
    write_json_report,
)

NUM_SHARDS = bench_shards(4)
#: Treatment-arm scatter mode (CI pins it via ``--scatter``); comparing
#: ``full`` against itself still runs but skips the pruning assertions.
TREATMENT_MODE = bench_scatter_mode("short-circuit")
SHARD_POLICY = "hash"  # label_clustered_dataset aligns clusters to hash shards
CLIENT_THREADS = 8
BATCH_SIZE = 4
#: Per-test simulated verification latency (disk/network-resident data
#: graphs); high enough that pruned shards translate into saved wall time.
TEST_LATENCY = 0.0015


@pytest.fixture(scope="module")
def scenario():
    # one label-disjoint cluster per shard: a query built from cluster c's
    # graphs is provably unanswerable on every other shard (label/feature
    # gaps for subgraph semantics, feature floors for supergraph semantics)
    dataset = label_clustered_dataset(
        num_clusters=NUM_SHARDS,
        graphs_per_cluster=smoke_scaled(10, 6),
        rng=181,
    )
    # zipfian skew over the cluster-ordered dataset: cluster 0's graphs are
    # the hot patterns, so shard 0 is the hot shard (the admission scenario)
    trace = generate_trace(dataset, smoke_scaled(64, 32), skew="zipfian",
                           query_type="mixed", seed=182,
                           name="skewed-clustered")
    return dataset, trace


def serve_trace(dataset, trace, scatter_mode: str, admission_mode: str):
    """One served replay; fresh server + sharded system per arm."""
    config = GCConfig(cache_capacity=20, window_size=5,
                      num_shards=NUM_SHARDS, shard_policy=SHARD_POLICY,
                      scatter_mode=scatter_mode, admission_mode=admission_mode)
    server = QueryServer(
        dataset,
        config,
        method=lambda: DirectSIMethod(verifier=SimulatedLatencyMatcher(TEST_LATENCY)),
        max_batch_size=BATCH_SIZE,
        max_queue_depth=512,
        # generous per-shard budget: the cost-based arm demonstrates the
        # accounting (outstanding cost tracked per shard) without 429s, so
        # every arm serves the full trace and answers stay comparable
        max_shard_cost_seconds=60.0,
    )
    with server:
        client = RemoteGraphService.for_server(server)
        result = replay_trace(client, trace, num_threads=CLIENT_THREADS)
        metrics = client.metrics().to_wire()
        stats = client.stats()
    return result, metrics, stats


def test_bench_scatter_shortcircuit(benchmark, scenario):
    """Fan-out < num_shards and the served-QPS delta vs full scatter."""
    dataset, trace = scenario

    arms = [
        ("full", "queue-depth"),
        (TREATMENT_MODE, "queue-depth"),
        (TREATMENT_MODE, "cost-based"),
    ]
    rows = []
    results = {}

    def run_all_arms():
        for scatter_mode, admission_mode in arms:
            results[(scatter_mode, admission_mode)] = serve_trace(
                dataset, trace, scatter_mode, admission_mode
            )

    benchmark.pedantic(run_all_arms, rounds=1, iterations=1)

    full_qps = None
    reference_answers = None
    for scatter_mode, admission_mode in arms:
        result, metrics, server_stats = results[(scatter_mode, admission_mode)]
        assert result.served == len(trace), (
            f"{scatter_mode}/{admission_mode} dropped queries: "
            f"{result.served}/{len(trace)} served, {result.rejected} rejected"
        )
        # answers are the invariant: pruning may only skip shards that
        # cannot contribute, so every arm returns identical answer sets
        answers = result.answers()
        if reference_answers is None:
            reference_answers = answers
        else:
            assert answers == reference_answers, (
                f"{scatter_mode}/{admission_mode} changed answers vs full scatter"
            )
        scatter = metrics["scatter"]
        stats = scatter["stats"]
        tails = result.latency_percentiles()
        if full_qps is None:
            full_qps = result.achieved_qps
        rows.append({
            "scatter": scatter_mode,
            "admission": admission_mode,
            "queries_per_sec": round(result.achieved_qps, 1),
            "speedup_vs_full": round(result.achieved_qps / full_qps, 2),
            "p95_ms": round(tails["p95"] * 1000.0, 2),
            "mean_fanout": stats["mean_fanout"],
            "skip_rate": stats["skip_rate"],
            "summary_fallbacks": stats["summary_fallbacks"],
            "rejected_cost": server_stats["batcher"]["rejected_cost"],
        })

    if TREATMENT_MODE == "short-circuit":
        for row in rows[1:]:
            # the acceptance criterion: real pruning on the skewed trace
            assert 0.0 < row["mean_fanout"] < NUM_SHARDS, (
                f"mean fan-out {row['mean_fanout']} not below {NUM_SHARDS} shards"
            )
            assert row["summary_fallbacks"] == 0

    table = rows_to_report(
        "S3_scatter_shortcircuit",
        f"S3 — Short-circuit scatter at {NUM_SHARDS} shards "
        f"(skewed clustered trace, {len(trace)} queries)",
        rows,
    )
    write_json_report("scatter_shortcircuit", {
        "experiment": "S3_scatter_shortcircuit",
        "num_shards": NUM_SHARDS,
        "shard_policy": SHARD_POLICY,
        "treatment_mode": TREATMENT_MODE,
        "num_queries": len(trace),
        "client_threads": CLIENT_THREADS,
        "batch_size": BATCH_SIZE,
        "test_latency_seconds": TEST_LATENCY,
        "rows": rows,
    })
    print()
    print(table)
