"""Scrape-time collectors over the stack's existing telemetry sources.

These bridge the ad-hoc telemetry that predates the registry —
``StatisticsManager`` aggregates, ``ScatterStats``, batcher queue state —
into :class:`~repro.obs.metrics.Sample` streams, so
``GET /metrics?format=text`` exposes one unified surface without changing
how any source accumulates.  Everything is duck-typed: a collector reads
public accessors at scrape time and owns no state.
"""

from __future__ import annotations

from collections.abc import Iterator

from repro.obs.metrics import COUNTER, GAUGE, Sample


def system_samples(system) -> Iterator[Sample]:
    """Samples from a (possibly sharded) system's ``StatisticsManager``."""
    aggregate = system.statistics.aggregate()
    yield Sample("gc_queries_total", COUNTER, float(aggregate.num_queries),
                 help="Queries processed by the cache system")
    for kind, value in (("exact", aggregate.num_exact_hits),
                        ("sub", aggregate.num_sub_hits),
                        ("super", aggregate.num_super_hits)):
        yield Sample("gc_cache_hits_total", COUNTER, float(value),
                     help="Confirmed cache hits by kind", labels={"kind": kind})
    for kind, value in (("dataset", aggregate.total_dataset_tests),
                        ("baseline", aggregate.total_baseline_tests),
                        ("probe", aggregate.total_probe_tests)):
        yield Sample("gc_subiso_tests_total", COUNTER, float(value),
                     help="Sub-isomorphism tests by kind", labels={"kind": kind})
    yield Sample("gc_query_seconds_total", COUNTER, float(aggregate.total_seconds),
                 help="Total query execution seconds")
    yield Sample("gc_hit_ratio", GAUGE, float(aggregate.hit_ratio),
                 help="Fraction of queries with at least one cache hit")
    yield Sample("gc_test_speedup", GAUGE, float(aggregate.test_speedup),
                 help="Aggregate sub-iso-test speedup vs the uncached baseline")


def scatter_samples(system) -> Iterator[Sample]:
    """Samples from a sharded system's scatter planner statistics.

    The shapes live on :meth:`ScatterStats.metrics_samples` — the planner
    owns its counters, the registry just scrapes them.
    """
    yield from system.planner.stats.metrics_samples()


def batcher_samples(batcher) -> Iterator[Sample]:
    """Samples from a request batcher's :class:`BatcherStats`."""
    stats = batcher.stats()
    yield Sample("gc_server_queue_depth", GAUGE, float(stats.queue_depth),
                 help="Requests waiting in the batcher queue")
    yield Sample("gc_server_submitted_total", COUNTER, float(stats.submitted),
                 help="Requests submitted to the batcher")
    yield Sample("gc_server_rejected_total", COUNTER, float(stats.rejected),
                 help="Requests rejected because the admission queue was full")
    yield Sample("gc_server_served_total", COUNTER, float(stats.served),
                 help="Requests served successfully")
    yield Sample("gc_server_failed_total", COUNTER, float(stats.failed),
                 help="Requests that failed inside a batch")
    for reason, value in (("expired", stats.shed_expired),
                          ("abandoned", stats.shed_abandoned)):
        yield Sample("gc_server_shed_total", COUNTER, float(value),
                     help="Admitted requests shed before execution (dead work)",
                     labels={"reason": reason})
    yield Sample("gc_server_batches_total", COUNTER, float(stats.batches),
                 help="Batches executed")
    yield Sample("gc_server_largest_batch", GAUGE, float(stats.largest_batch),
                 help="Largest batch executed so far")


def recorder_samples(recorder) -> Iterator[Sample]:
    """Samples describing the span recorder itself."""
    stats = recorder.stats()
    yield Sample("gc_trace_buffered_traces", GAUGE, float(stats["traces"]),
                 help="Traces resident in the span recorder")
    yield Sample("gc_trace_buffered_spans", GAUGE, float(stats["spans"]),
                 help="Spans resident in the span recorder")
    yield Sample("gc_trace_evicted_traces_total", COUNTER,
                 float(stats["evicted_traces"]),
                 help="Traces evicted from the bounded span buffer")
    yield Sample("gc_slow_query_exemplars", GAUGE, float(stats["exemplars"]),
                 help="Slow-query exemplars currently retained")
