"""E7 (ablation) — Method M pluggability.

GC is "applicable for both SI and FTV approaches": the cache must deliver
savings regardless of the Method M it is deployed over.  This bench runs the
same workload over each bundled Method M, with and without GC, and
regenerates a table of dataset sub-iso tests and speedups per method.
"""

from __future__ import annotations

import pytest

from repro.runtime import GCConfig
from repro.workload import compare_methods

from benchmarks.harness import rows_to_report, standard_dataset, standard_workload

METHODS = {
    "direct-si": {},
    "graphgrep-sx": {"feature_size": 2},
    "ct-index": {"num_bits": 1024},
}


@pytest.fixture(scope="module")
def comparison():
    dataset = standard_dataset(50, seed=61, min_vertices=10, max_vertices=28)
    workload = standard_workload(dataset, 40, "popular", seed=62, name="methods")
    config = GCConfig(cache_capacity=20, window_size=5, replacement_policy="HD")
    return compare_methods(dataset, workload, list(METHODS), config=config,
                           method_options=METHODS)


def test_bench_method_pluggability(benchmark, comparison):
    """Regenerate the per-method with/without-GC comparison table."""
    rows = []
    for method_name, arms in comparison.items():
        baseline = arms["baseline"].aggregate
        with_gc = arms["gc"].aggregate
        rows.append({
            "method": method_name,
            "baseline_tests": baseline.total_dataset_tests,
            "gc_tests": with_gc.total_dataset_tests,
            "test_speedup": round(
                baseline.total_dataset_tests / max(1, with_gc.total_dataset_tests), 3
            ),
            "gc_hit_ratio": round(with_gc.hit_ratio, 3),
            "index_bytes": arms["baseline"].index_memory_bytes,
            "cache_bytes": arms["gc"].cache_memory_bytes,
        })
    table = rows_to_report(
        "E7_method_pluggability",
        "E7: GC deployed over different Methods M (SI and FTV)",
        rows,
        columns=["method", "baseline_tests", "gc_tests", "test_speedup",
                 "gc_hit_ratio", "index_bytes", "cache_bytes"],
    )
    print("\n" + table)

    for method_name, arms in comparison.items():
        baseline = arms["baseline"]
        with_gc = arms["gc"]
        # GC never increases the number of dataset sub-iso tests
        assert with_gc.aggregate.total_dataset_tests <= baseline.aggregate.total_dataset_tests
        # and never changes an answer
        for base_report, gc_report in zip(baseline.reports, with_gc.reports):
            assert base_report.answer == gc_report.answer
        # GC produced actual savings over at least the SI method
    si_arms = comparison["direct-si"]
    assert (si_arms["gc"].aggregate.total_dataset_tests
            < si_arms["baseline"].aggregate.total_dataset_tests)

    # time a single small comparison for pytest-benchmark accounting
    dataset = standard_dataset(20, seed=63, min_vertices=8, max_vertices=18)
    workload = standard_workload(dataset, 10, "popular", seed=64)
    config = GCConfig(cache_capacity=10, window_size=2)
    benchmark.pedantic(
        lambda: compare_methods(dataset, workload, ["direct-si"], config=config),
        rounds=1, iterations=1,
    )
