"""E5 — Headline speedups ("speedups in query time up to 40×", §1/§3.1).

The paper's headline number comes from favourable workloads: many queries
that repeat, shrink or extend previously seen patterns over an expensive
Method M.  We reproduce the *shape* — a distribution of per-query speedups
whose tail is large (exact-match and strongly-pruned queries) and whose mean
is comfortably above 1 — using a measured (not estimated) Method M baseline.

Absolute numbers depend on the verifier and the dataset scale; the assertions
check the qualitative claims only: GC is never wrong, saves a large fraction
of the sub-iso tests, and its best per-query time speedups are an order of
magnitude above 1.
"""

from __future__ import annotations

import pytest

from repro.runtime import GCConfig, GraphCacheSystem
from repro.workload import WorkloadGenerator, WorkloadMix, run_workload

from benchmarks.harness import rows_to_report, standard_dataset


@pytest.fixture(scope="module")
def favourable_setting():
    # larger, label-homogeneous-ish molecules make sub-iso verification the
    # dominant cost, which is the regime the paper's headline targets.  The
    # dataset size keeps the experiment at that operating point: Method M
    # spends ~0.2 s on the 60 queries and the cache's probing ~11-14 % of
    # that.  PR 15 made a sub-iso test ~8x cheaper, so the 80 graphs that
    # gave this point before give a 0.4 ms Method M now (break-even for any
    # cache, time speedup 0.7); 8x the graphs restore it (see CHANGES.md)
    dataset = standard_dataset(640, seed=404, min_vertices=20, max_vertices=50)
    generator = WorkloadGenerator(dataset, rng=405)
    mix = WorkloadMix(repeat_fraction=0.35, shrink_fraction=0.3, extend_fraction=0.25,
                      fresh_fraction=0.1, zipf_alpha=1.0, pool_size=15,
                      min_pattern_vertices=8, max_pattern_vertices=16)
    workload = generator.generate(60, mix=mix, name="favourable")
    return dataset, workload


def test_bench_headline_speedup(benchmark, favourable_setting):
    """Regenerate the headline query-time / sub-iso-test speedup summary."""
    dataset, workload = favourable_setting
    config = GCConfig(cache_capacity=40, window_size=5, replacement_policy="HD",
                      method="direct-si", measure_baseline=True)
    system = GraphCacheSystem(dataset, config)

    result = benchmark.pedantic(lambda: run_workload(system, workload), rounds=1, iterations=1)

    per_query_time_speedups = [
        report.baseline_seconds / report.total_seconds
        for report in result.reports
        if report.baseline_seconds and report.total_seconds > 0
    ]
    per_query_test_speedups = [report.test_speedup for report in result.reports
                               if report.baseline_tests > 0 and report.dataset_tests > 0]
    aggregate = result.aggregate

    rows = [
        {
            "metric": "queries",
            "value": aggregate.num_queries,
        },
        {"metric": "hit ratio", "value": round(aggregate.hit_ratio, 3)},
        {"metric": "workload sub-iso-test speedup", "value": round(aggregate.test_speedup, 2)},
        {"metric": "workload query-time speedup", "value": round(aggregate.time_speedup, 2)},
        {
            "metric": "max per-query time speedup",
            "value": round(max(per_query_time_speedups), 2) if per_query_time_speedups else "n/a",
        },
        {
            "metric": "mean per-query time speedup",
            "value": round(
                sum(per_query_time_speedups) / len(per_query_time_speedups), 2
            ) if per_query_time_speedups else "n/a",
        },
        {
            "metric": "queries answered with zero sub-iso tests",
            "value": sum(1 for report in result.reports if report.dataset_tests == 0),
        },
        {
            "metric": "paper reference",
            "value": "query-time speedups up to 40x on 6M queries (cluster scale)",
        },
    ]
    table = rows_to_report("E5_headline_speedup",
                           "E5: headline speedups of GC over Method M", rows,
                           columns=["metric", "value"])
    print("\n" + table)

    # qualitative claims
    assert aggregate.hit_ratio > 0.4
    assert aggregate.test_speedup > 1.5, "GC must save a large fraction of sub-iso tests"
    assert aggregate.time_speedup > 1.0, "GC must be faster than the measured Method M baseline"
    assert max(per_query_time_speedups) > 5.0, (
        "favourable queries (exact/sub hits) should see order-of-magnitude time speedups"
    )
    # correctness: measured baseline answers equal GC answers is already
    # enforced inside the executor's baseline run; spot check a few reports
    for report in result.reports[:5]:
        baseline = system.executor.execute_baseline(report.query.graph, report.query.query_type)
        assert baseline.answer == report.answer
