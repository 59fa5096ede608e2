"""E10 (extension) — GC's own overhead: probe tests vs dataset tests saved.

GC is not free: discovering sub/super/exact hits requires sub-iso "probe"
tests against the (small) cached query graphs, plus maintaining the cached
query index.  The paper argues these costs are negligible compared to the
dataset sub-iso tests they save, because cached queries are tiny compared to
dataset graphs.  This bench quantifies that claim: for a standard workload it
reports the number and total time of probe tests versus the number and time
of dataset tests avoided.  The assertions compare counts only: the times are
reported, and the saved time is an estimate.
"""

from __future__ import annotations

import pytest

from repro.runtime import GCConfig, GraphCacheSystem
from repro.workload import run_workload

from benchmarks.harness import rows_to_report, standard_dataset, standard_workload


@pytest.fixture(scope="module")
def run():
    dataset = standard_dataset(80, seed=700, min_vertices=15, max_vertices=40)
    workload = standard_workload(dataset, 60, "popular", seed=701, name="overhead")
    config = GCConfig(cache_capacity=30, window_size=5, replacement_policy="HD",
                      method="direct-si")
    system = GraphCacheSystem(dataset, config)
    return system, run_workload(system, workload)


def test_bench_probe_overhead(benchmark, run):
    """Regenerate the probe-cost vs savings accounting."""
    system, result = run
    aggregate = result.aggregate

    probe_seconds = sum(report.probe_seconds for report in result.reports)
    verify_seconds = sum(report.verify_seconds for report in result.reports)
    tests_saved = aggregate.total_baseline_tests - aggregate.total_dataset_tests
    # estimate of the time those saved tests would have cost, using the
    # average observed per-test verification time
    avg_test_seconds = (
        verify_seconds / aggregate.total_dataset_tests
        if aggregate.total_dataset_tests else 0.0
    )
    saved_seconds_estimate = tests_saved * avg_test_seconds

    rows = [
        {"metric": "queries", "value": aggregate.num_queries},
        {"metric": "dataset sub-iso tests run", "value": aggregate.total_dataset_tests},
        {"metric": "dataset sub-iso tests saved", "value": tests_saved},
        {"metric": "probe tests against cached queries", "value": aggregate.total_probe_tests},
        {"metric": "probe time (s)", "value": round(probe_seconds, 4)},
        {"metric": "verification time spent (s)", "value": round(verify_seconds, 4)},
        {"metric": "verification time saved, estimated (s)",
         "value": round(saved_seconds_estimate, 4)},
        {"metric": "probe tests per query", "value": round(
            aggregate.total_probe_tests / aggregate.num_queries, 2)},
        {"metric": "saved tests per probe test", "value": round(
            tests_saved / max(1, aggregate.total_probe_tests), 3)},
    ]
    table = rows_to_report(
        "E10_probe_overhead",
        "E10: GC overhead (probe tests) vs dataset sub-iso tests saved",
        rows,
        columns=["metric", "value"],
    )
    print("\n" + table)

    # the cache produced real savings
    assert tests_saved > 0
    # probing stays bounded: fewer probe tests than the cache population
    # per query on average
    assert aggregate.total_probe_tests / aggregate.num_queries <= system.cache.capacity
    # and the cache saves more dataset tests than it spends probing
    assert tests_saved > aggregate.total_probe_tests

    benchmark.pedantic(lambda: system.aggregate(), rounds=1, iterations=1)
