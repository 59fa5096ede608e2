"""E5 — Headline speedups ("speedups in query time up to 40×", §1/§3.1).

The paper's headline number comes from favourable workloads: many queries
that repeat, shrink or extend previously seen patterns over an expensive
Method M.  We reproduce the *shape* — a distribution of per-query speedups
whose tail is large (exact-match and strongly-pruned queries) and whose mean
is comfortably above 1.

Every assertion compares counts, not clocks: Method M's cost is its ``|C_M|``
tests (``baseline_tests``), GC's the dataset tests it ran plus the probe tests
it paid to find its hits.  The query-time speedup in the table is an estimate
(``QueryReport.baseline_seconds``); the measured time claim is gcbench's.
Absolute numbers depend on the verifier and the dataset scale; the assertions
check the qualitative claims only: GC is never wrong, saves a large fraction
of the sub-iso tests, pays for its probes, and its best per-query test
speedups are an order of magnitude above 1.
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
                      method="direct-si")
    system = GraphCacheSystem(dataset, config)

    result = benchmark.pedantic(lambda: run_workload(system, workload), rounds=1, iterations=1)

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
        {"metric": "workload query-time speedup (estimate)",
         "value": round(aggregate.time_speedup, 2)},
        {"metric": "baseline sub-iso tests", "value": aggregate.total_baseline_tests},
        {"metric": "dataset sub-iso tests", "value": aggregate.total_dataset_tests},
        {"metric": "probe tests", "value": aggregate.total_probe_tests},
        {
            "metric": "max per-query test speedup",
            "value": round(max(per_query_test_speedups), 2) if per_query_test_speedups else "n/a",
        },
        {
            "metric": "mean per-query test speedup",
            "value": round(
                sum(per_query_test_speedups) / len(per_query_test_speedups), 2
            ) if per_query_test_speedups else "n/a",
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
    assert aggregate.total_baseline_tests > (
        aggregate.total_dataset_tests + aggregate.total_probe_tests
    ), "GC's dataset and probe tests together must cost fewer tests than Method M's"
    assert max(per_query_test_speedups) > 5.0, (
        "favourable queries (exact/sub hits) should see order-of-magnitude test speedups"
    )
    # correctness: spot check a few reports against Method M alone
    for report in result.reports[:5]:
        baseline = system.method.execute(report.query.graph, report.query.query_type)
        assert baseline.answer == report.answer
