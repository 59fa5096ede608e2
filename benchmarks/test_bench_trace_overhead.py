"""S6 — Trace overhead: served QPS vs trace sampling rate.

The observability layer's performance acceptance gate.  The S1 serving
scenario (verification-bound trace, fixed closed-loop client pool, batching
server) is replayed three times with the *only* knob moved being
``trace_sample_rate``: 0.0 (tracing off), 0.1 (typical production sampling)
and 1.0 (every request traced end to end — span tree per query, recorder
inserts, response trace ids).  Answers must stay bit-identical across arms,
and full sampling must keep >= 95% of the tracing-off served QPS — tracing
is bookkeeping around the pipeline, never inside the verification loop.

Each arm runs three times and keeps its best QPS, and the rounds interleave
the arms (off, 0.1, 1.0, off, ...), so a change in machine load during the
test hits every arm alike instead of one arm's whole block — scheduler
noise on a shared host would otherwise fail a 5% bound now and then.

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

SAMPLE_RATES = [0.0, 0.1, 1.0]
CLIENT_THREADS = 8
BATCH_SIZE = 4
TEST_LATENCY = 0.0008
#: Served QPS at full sampling must stay within 5% of tracing-off.
MAX_OVERHEAD = 0.05
ROUNDS_PER_ARM = 3


@pytest.fixture(scope="module")
def scenario():
    dataset = standard_dataset(smoke_scaled(40, 24), seed=91,
                               min_vertices=10, max_vertices=20)
    mix = WorkloadMix(fresh_fraction=0.7, repeat_fraction=0.1,
                      shrink_fraction=0.1, extend_fraction=0.1,
                      min_pattern_vertices=5, max_pattern_vertices=8)
    trace = WorkloadGenerator(dataset, rng=92).generate(
        smoke_scaled(48, 24), mix=mix, name="verification-bound"
    )
    return dataset, trace


def serve_traced(dataset, trace, sample_rate: float):
    """One served replay with the given server-side trace sampling rate."""
    method = DirectSIMethod(verifier=SimulatedLatencyMatcher(TEST_LATENCY))
    server = QueryServer(
        dataset,
        GCConfig(cache_capacity=20, window_size=5,
                 trace_sample_rate=sample_rate),
        method=method,
        max_batch_size=BATCH_SIZE,
        max_queue_depth=512,
    )
    # the span recorder is per process: count only this replay's traces
    server.span_recorder.reset()
    with server:
        client = RemoteGraphService.for_server(server)
        result = replay_trace(client, trace, num_threads=CLIENT_THREADS)
        traced = server.span_recorder.stats()["traces"]
    return result, traced


def test_bench_trace_overhead(benchmark, scenario):
    """Served QPS at sampling 0.0/0.1/1.0; full sampling costs <= 5%."""
    dataset, trace = scenario

    reference_answers = None
    best = {}
    for _ in range(ROUNDS_PER_ARM):
        for rate in SAMPLE_RATES:
            result, traced = serve_traced(dataset, trace, rate)
            assert result.served == len(trace), (
                f"dropped queries at rate={rate}: {result.summary()}"
            )
            if reference_answers is None:
                reference_answers = result.answers()
            assert result.answers() == reference_answers, (
                f"tracing changed answers at rate={rate}"
            )
            if rate not in best or result.achieved_qps > best[rate][0].achieved_qps:
                best[rate] = (result, traced)

    rows = []
    baseline_qps = best[0.0][0].achieved_qps
    for rate in SAMPLE_RATES:
        result, traced = best[rate]
        if rate == 0.0:
            assert traced == 0, "tracing off must record no traces"
        tails = result.latency_percentiles()
        rows.append({
            "sample_rate": rate,
            "queries_per_sec": round(result.achieved_qps, 1),
            "p50_ms": round(tails["p50"] * 1000.0, 2),
            "p99_ms": round(tails["p99"] * 1000.0, 2),
            "traces_recorded": traced,
            "qps_vs_off": round(result.achieved_qps / baseline_qps, 3),
        })

    table = rows_to_report(
        "S6_trace_overhead",
        "S6: Served QPS vs trace sampling rate (verification-bound, "
        f"batch={BATCH_SIZE}, {CLIENT_THREADS} closed-loop clients)",
        rows,
        columns=["sample_rate", "queries_per_sec", "p50_ms", "p99_ms",
                 "traces_recorded", "qps_vs_off"],
    )
    write_json_report("trace_overhead", {
        "experiment": "S6_trace_overhead",
        "smoke_mode": smoke_mode(),
        "num_queries": len(trace),
        "dataset_size": len(dataset),
        "client_threads": CLIENT_THREADS,
        "batch_size": BATCH_SIZE,
        "test_latency_seconds": TEST_LATENCY,
        "max_overhead": MAX_OVERHEAD,
        "rows": rows,
    })
    print("\n" + table)

    full = next(row for row in rows if row["sample_rate"] == 1.0)
    assert full["traces_recorded"] > 0, "full sampling recorded no traces"
    assert full["qps_vs_off"] >= 1.0 - MAX_OVERHEAD, (
        f"full-sampling trace overhead exceeds {MAX_OVERHEAD:.0%}: "
        f"{full['qps_vs_off']:.3f}x of tracing-off QPS"
    )

    benchmark.pedantic(
        lambda: serve_traced(dataset, trace, 1.0), rounds=1, iterations=1
    )
