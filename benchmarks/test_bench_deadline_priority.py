"""S7 — Deadline shedding: tail latency under overload.

The same verification-bound zipfian trace is replayed open-loop far above
server capacity, once without deadlines (every query eventually drains the
queue, so served tail latency grows with the backlog) and once with a
per-query deadline and a mixed priority population (80% background
priority 0, 20% urgent priority 10).  The batcher sheds queued work it
cannot start in time (504, counted under ``timeouts``) and spends every
batch slot on the most urgent viable query, so the served tail collapses to
the deadline bound and the urgent band is shed at most as often as the
background band.  Answers that *are* served stay identical to an unloaded
reference replay.

Smoke mode (``run_all.py --smoke`` / ``GC_BENCH_SMOKE=1``) shrinks the
scenario for CI perf tracking without changing its shape.
"""

from __future__ import annotations

import pytest

from repro.api.remote import RemoteGraphService
from repro.methods import DirectSIMethod
from repro.runtime import GCConfig
from repro.server import QueryServer
from repro.workload import generate_trace, replay_trace

from benchmarks.harness import (
    SimulatedLatencyMatcher,
    rows_to_report,
    smoke_mode,
    smoke_scaled,
    standard_dataset,
    write_json_report,
)

#: Per-test simulated verification latency: high enough that the server is
#: firmly verification-bound and its capacity is far below the offered load.
TEST_LATENCY = 0.0015
DEADLINE_SECONDS = 0.2
PRIORITY_MIX = [(0, 0.8), (10, 0.2)]
OVERLOAD_QPS = 1000.0
OVERLOAD_THREADS = 32


@pytest.fixture(scope="module")
def serving_scenario():
    dataset = standard_dataset(smoke_scaled(40, 24), seed=91,
                               min_vertices=10, max_vertices=20)
    trace = generate_trace(dataset, smoke_scaled(144, 48), skew="zipfian",
                           query_type="mixed", seed=29)
    return dataset, trace


def serve_replay(dataset, trace, deadline_seconds=None, priority_mix=None,
                 target_qps=None, num_threads=8):
    """One served replay through a fresh overload-prone server."""
    method = DirectSIMethod(verifier=SimulatedLatencyMatcher(TEST_LATENCY))
    with QueryServer(dataset, GCConfig(cache_capacity=20, window_size=5),
                     method=method, max_batch_size=2,
                     max_queue_depth=512,
                     request_timeout_seconds=30.0) as server:
        client = RemoteGraphService.for_server(server)
        result = replay_trace(client, trace, target_qps=target_qps,
                              num_threads=num_threads,
                              deadline_seconds=deadline_seconds,
                              priority_mix=priority_mix)
        batcher = server.batcher.stats()
    return result, batcher


def shed_rate(events) -> float:
    events = list(events)
    if not events:
        return 0.0
    return sum(1 for e in events if e.status == 504) / len(events)


def result_row(arm: str, result) -> dict:
    tails = result.latency_percentiles()
    return {
        "arm": arm,
        "served": result.served,
        "timeouts": result.timeouts,
        "rejected": result.rejected,
        "shed_rate": round(shed_rate(result.events), 3),
        "p50_ms": round(tails["p50"] * 1000.0, 2),
        "p95_ms": round(tails["p95"] * 1000.0, 2),
        "p99_ms": round(tails["p99"] * 1000.0, 2),
    }


def test_bench_deadline_shedding(benchmark, serving_scenario):
    """Deadlines bound the served tail under overload; urgency is honoured."""
    dataset, trace = serving_scenario

    # unloaded reference: the answer every served query must still produce
    reference, _ = serve_replay(dataset, trace)
    assert reference.served == len(trace)
    reference_answers = reference.answers()

    # overload, no deadlines: everything eventually drains, the tail grows
    no_deadline, _ = serve_replay(dataset, trace, target_qps=OVERLOAD_QPS,
                                  num_threads=OVERLOAD_THREADS)
    assert no_deadline.errors == 0

    # overload with deadlines + mixed priorities: dead work is shed as 504s
    with_deadline, batcher = serve_replay(
        dataset, trace, deadline_seconds=DEADLINE_SECONDS,
        priority_mix=PRIORITY_MIX, target_qps=OVERLOAD_QPS,
        num_threads=OVERLOAD_THREADS)
    assert with_deadline.errors == 0
    assert with_deadline.timeouts > 0, "overload never triggered shedding"
    assert with_deadline.served > 0, "deadline arm served nothing"
    assert (with_deadline.served + with_deadline.timeouts
            + with_deadline.rejected == len(trace))
    # shed work really died before execution (the zombie-work regression):
    # the batcher counted sheds and holds no outstanding cost afterwards
    assert batcher.shed > 0
    assert batcher.shard_outstanding == {}
    # every answer actually served is the reference answer for that query
    for event in with_deadline.events:
        if event.status == 200:
            assert event.answer == reference_answers[event.index], (
                f"served answer diverged at index {event.index}"
            )

    # the urgent band is shed at most as often as the background band
    high = [e for e in with_deadline.events if e.priority == 10]
    low = [e for e in with_deadline.events if e.priority == 0]
    assert high and low
    assert shed_rate(high) <= shed_rate(low), (
        f"urgent queries shed more often than background ones: "
        f"{shed_rate(high):.3f} vs {shed_rate(low):.3f}"
    )

    rows = [
        result_row("reference (closed loop)", reference),
        result_row("overload, no deadline", no_deadline),
        result_row(f"overload, deadline {DEADLINE_SECONDS}s", with_deadline),
        result_row("  priority 10 (urgent)", _subset(with_deadline, high)),
        result_row("  priority 0 (background)", _subset(with_deadline, low)),
    ]
    table = rows_to_report(
        "S7_deadline_priority",
        "S7: Deadline shedding under overload (open-loop zipfian, 80/20 priority mix)",
        rows,
        columns=["arm", "served", "timeouts", "rejected", "shed_rate",
                 "p50_ms", "p95_ms", "p99_ms"],
    )
    print("\n" + table)

    deadline_tails = with_deadline.latency_percentiles()
    no_deadline_tails = no_deadline.latency_percentiles()
    write_json_report("deadline_priority", {
        "experiment": "S7_deadline_priority",
        "smoke_mode": smoke_mode(),
        "num_queries": len(trace),
        "deadline_seconds": DEADLINE_SECONDS,
        "priority_mix": PRIORITY_MIX,
        "overload_qps": OVERLOAD_QPS,
        "overload_threads": OVERLOAD_THREADS,
        "rows": rows,
        "batcher": batcher.to_dict(),
        "shed_rate_priority_10": round(shed_rate(high), 4),
        "shed_rate_priority_0": round(shed_rate(low), 4),
    })

    # acceptance: the deadline bounds the served tail — p99 within 2x the
    # budget and no worse than the unbounded overload tail
    assert deadline_tails["p99"] <= DEADLINE_SECONDS * 2.0, (
        f"served p99 {deadline_tails['p99']:.3f}s exceeds twice the "
        f"{DEADLINE_SECONDS}s deadline"
    )
    assert deadline_tails["p99"] <= no_deadline_tails["p99"], (
        "deadline arm served a worse p99 than unbounded overload"
    )

    benchmark.pedantic(
        lambda: serve_replay(dataset, trace,
                             deadline_seconds=DEADLINE_SECONDS,
                             priority_mix=PRIORITY_MIX,
                             target_qps=OVERLOAD_QPS,
                             num_threads=OVERLOAD_THREADS),
        rounds=1, iterations=1,
    )


def _subset(result, events):
    """A shallow per-band view reusing ReplayResult's percentile math."""
    import copy

    view = copy.copy(result)
    view.events = list(events)
    return view

