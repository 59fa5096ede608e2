"""E8 (ablation) — semantic caching vs the traditional exact-match-only cache.

The paper's central claim about *why* GC differs from existing caches:
"Central to GC is a semantic graph cache that could harness both subgraph
and supergraph cache hits, extending the traditional exact-match-only hit
and hence leading to impressive speedups."

This bench runs the same workload three ways — no cache, an exact-match-only
cache (``semantic_hits=False``), and full GC — and regenerates the
comparison of hit ratios and sub-iso-test savings.
"""

from __future__ import annotations

import pytest

from repro.runtime import GCConfig, GraphCacheSystem
from repro.workload import run_workload

from benchmarks.harness import rows_to_report, standard_dataset, standard_workload


@pytest.fixture(scope="module")
def setting():
    dataset = standard_dataset(60, seed=111, min_vertices=12, max_vertices=32)
    workload = standard_workload(dataset, 60, "popular", seed=112, name="semantic-vs-exact")
    return dataset, workload


def run_mode(dataset, workload, cache_enabled: bool, semantic: bool):
    config = GCConfig(
        cache_capacity=30,
        window_size=5,
        replacement_policy="HD",
        method="direct-si",
        cache_enabled=cache_enabled,
        semantic_hits=semantic,
    )
    system = GraphCacheSystem(dataset, config)
    return run_workload(system, workload)


def test_bench_semantic_vs_exact_only(benchmark, setting):
    """Regenerate the exact-only vs semantic cache comparison."""
    dataset, workload = setting

    no_cache = run_mode(dataset, workload, cache_enabled=False, semantic=False)
    exact_only = run_mode(dataset, workload, cache_enabled=True, semantic=False)
    semantic = run_mode(dataset, workload, cache_enabled=True, semantic=True)

    def row(name, result):
        aggregate = result.aggregate
        return {
            "cache": name,
            "hit_ratio": round(aggregate.hit_ratio, 3),
            "exact_hits": aggregate.num_exact_hits,
            "sub_hits": aggregate.num_sub_hits,
            "super_hits": aggregate.num_super_hits,
            "dataset_tests": aggregate.total_dataset_tests,
            "test_speedup": round(aggregate.test_speedup, 3),
        }

    rows = [
        row("none (Method M only)", no_cache),
        row("exact-match-only", exact_only),
        row("GC (semantic: sub+super)", semantic),
    ]
    table = rows_to_report(
        "E8_semantic_vs_exact",
        "E8: semantic cache (GC) vs traditional exact-match-only cache",
        rows,
        columns=["cache", "hit_ratio", "exact_hits", "sub_hits", "super_hits",
                 "dataset_tests", "test_speedup"],
    )
    print("\n" + table)

    # identical answers in every mode
    for first, second, third in zip(no_cache.reports, exact_only.reports, semantic.reports):
        assert first.answer == second.answer == third.answer

    # shape: exact-only helps (repeats exist), semantic helps strictly more
    assert exact_only.aggregate.total_dataset_tests <= no_cache.aggregate.total_dataset_tests
    assert semantic.aggregate.total_dataset_tests < exact_only.aggregate.total_dataset_tests, (
        "sub/super hits must save tests beyond exact-match hits"
    )
    assert semantic.aggregate.hit_ratio > exact_only.aggregate.hit_ratio
    assert semantic.aggregate.num_sub_hits + semantic.aggregate.num_super_hits > 0
    assert exact_only.aggregate.num_sub_hits == 0
    assert exact_only.aggregate.num_super_hits == 0

    benchmark.pedantic(
        lambda: run_mode(dataset, workload, cache_enabled=True, semantic=True),
        rounds=1, iterations=1,
    )
