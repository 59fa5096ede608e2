"""E2 — Speedup versus Overhead (paper §3.1-II).

The paper's comparison: making the FTV filter stronger by increasing the
feature size by one buys ≈10 % average query time at ≈2× index space, whereas
GC delivers its speedups with a memory footprint around 1 % of the FTV index.

This bench regenerates the three-way comparison on the same dataset and
workload:

* Method M with feature size k           (the baseline),
* Method M with feature size k+1         (more filtering power, bigger index),
* GC deployed over Method M (size k)     (the cache).

Reported per configuration: average dataset sub-iso tests per query, average
query time, and the memory of the structure that delivers the improvement
(the extra index space for k+1, the cache for GC).

The comparison runs on 2 000 graphs: the index grows with the dataset while
the cache is bounded by its capacity, so the paper's ratios describe a large
dataset.  (With the bit-sliced containment index a feature costs bits, not a
dict entry per graph; on 80 graphs the whole index is smaller than 25 cached
queries with their answer sets, and the trend rows below show the crossover.)
"""

from __future__ import annotations

import pytest

from repro.runtime import GCConfig, GraphCacheSystem
from repro.workload import run_workload

from benchmarks.harness import rows_to_report, standard_dataset, standard_workload

FEATURE_SIZE = 2
DATASET_SIZE = 2000


@pytest.fixture(scope="module")
def setting():
    dataset = standard_dataset(DATASET_SIZE, seed=77, min_vertices=12, max_vertices=32)
    workload = standard_workload(dataset, 50, "popular", seed=11, name="overhead")
    return dataset, workload


def run_without_cache(dataset, workload, feature_size):
    config = GCConfig(cache_enabled=False, method="graphgrep-sx",
                      method_options={"feature_size": feature_size})
    system = GraphCacheSystem(dataset, config)
    result = run_workload(system, workload)
    return system, result


def run_with_gc(dataset, workload, feature_size):
    config = GCConfig(cache_capacity=25, window_size=5, replacement_policy="HD",
                      method="graphgrep-sx", method_options={"feature_size": feature_size})
    system = GraphCacheSystem(dataset, config)
    result = run_workload(system, workload)
    return system, result


def test_bench_speedup_versus_overhead(benchmark, setting):
    """Regenerate the E2 comparison and check its qualitative shape."""
    dataset, workload = setting

    base_system, base = run_without_cache(dataset, workload, FEATURE_SIZE)
    bigger_system, bigger = run_without_cache(dataset, workload, FEATURE_SIZE + 1)
    gc_system, with_gc = run_with_gc(dataset, workload, FEATURE_SIZE)

    base_index = base_system.index_memory_bytes()
    bigger_index = bigger_system.index_memory_bytes()
    cache_bytes = gc_system.cache_memory_bytes()

    def avg_tests(result):
        return result.aggregate.total_dataset_tests / result.aggregate.num_queries

    def avg_seconds(result):
        return result.aggregate.total_seconds / result.aggregate.num_queries

    rows = [
        {
            "configuration": f"Method M (feature size {FEATURE_SIZE})",
            "avg_tests": round(avg_tests(base), 2),
            "avg_query_ms": round(1000 * avg_seconds(base), 3),
            "extra_memory_bytes": 0,
            "index_bytes": base_index,
        },
        {
            "configuration": f"Method M (feature size {FEATURE_SIZE + 1})",
            "avg_tests": round(avg_tests(bigger), 2),
            "avg_query_ms": round(1000 * avg_seconds(bigger), 3),
            "extra_memory_bytes": bigger_index - base_index,
            "index_bytes": bigger_index,
        },
        {
            "configuration": f"GC over Method M (feature size {FEATURE_SIZE})",
            "avg_tests": round(avg_tests(with_gc), 2),
            "avg_query_ms": round(1000 * avg_seconds(with_gc), 3),
            "extra_memory_bytes": cache_bytes,
            "index_bytes": base_index,
        },
    ]
    rows.append(
        {
            "configuration": "GC memory as % of FTV index",
            "avg_tests": "",
            "avg_query_ms": "",
            "extra_memory_bytes": f"{100.0 * cache_bytes / base_index:.1f}%",
            "index_bytes": "",
        }
    )

    # The paper's "~1% of the FTV index" is a scale effect: the index grows
    # with the dataset while the cache is bounded by its capacity.  Show the
    # trend by building the same index over smaller datasets and relating the
    # *same* cache footprint to each.
    from repro.methods import GraphGrepSXMethod

    for size in (80, 640, 1280):
        smaller_dataset = standard_dataset(size, seed=77, min_vertices=12, max_vertices=32)
        method = GraphGrepSXMethod(feature_size=FEATURE_SIZE)
        method.build(smaller_dataset)
        scaled_index = method.index_memory_bytes()
        rows.append(
            {
                "configuration": f"GC memory as % of FTV index ({size} dataset graphs)",
                "avg_tests": "",
                "avg_query_ms": "",
                "extra_memory_bytes": f"{100.0 * cache_bytes / scaled_index:.1f}%",
                "index_bytes": scaled_index,
            }
        )
    table = rows_to_report(
        "E2_speedup_vs_overhead",
        "E2: filtering power vs space — bigger FTV features vs the GC cache",
        rows,
    )
    print("\n" + table)

    # shape checks (paper: bigger features => fewer tests but ~2x space;
    # GC => fewer tests at a small fraction of the index space)
    assert avg_tests(bigger) <= avg_tests(base)
    assert bigger_index > 1.3 * base_index, "larger features should cost much more index space"
    assert avg_tests(with_gc) < avg_tests(base), "GC must reduce dataset sub-iso tests"
    assert cache_bytes < 0.5 * (bigger_index - base_index), (
        "the cache must be far cheaper than the extra index space of a bigger feature size"
    )
    # the cache stores each answer as a set of ids (~70 bytes an id): here
    # two resident queries answered by ~1 570 graphs each are ~2/3 of it
    assert cache_bytes < 0.5 * base_index, "cache overhead must be a fraction of the index"
    # identical answers across all three configurations
    for first, second in zip(base.reports, with_gc.reports):
        assert first.answer == second.answer
    for first, second in zip(base.reports, bigger.reports):
        assert first.answer == second.answer

    # benchmark one GC query-processing pass over a small instance
    small_dataset = standard_dataset(30, seed=5, min_vertices=10, max_vertices=20)
    small_workload = standard_workload(small_dataset, 15, "popular", seed=6)
    benchmark.pedantic(
        lambda: run_with_gc(small_dataset, small_workload, FEATURE_SIZE),
        rounds=1,
        iterations=1,
    )
