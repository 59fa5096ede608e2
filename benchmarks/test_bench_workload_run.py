"""E4 — The Workload Run (paper §3.2 Scenario II, Fig. 2b and 2c).

Reproduces the demo's second scenario: a cache full of 50 previously executed
queries, a workload of 10 new queries, and two observations:

* per-query sub/super cache-hit percentages (hits over cached graphs) — the
  Fig. 2(b) bars;
* after the run, which cached graphs were replaced under each policy — the
  Fig. 2(c) comparison ("different graphs are cached out in different
  caches").
"""

from __future__ import annotations

import pytest

from repro.dashboard import WorkloadRunView, replacement_comparison
from repro.runtime import GCConfig, GraphCacheSystem
from repro.workload import WorkloadGenerator, WorkloadMix, run_workload

from benchmarks.harness import standard_dataset, warm_counting_repeats, write_report

POLICIES = ["LRU", "POP", "PIN", "PINC", "HD"]
CACHE_SIZE = 50
WORKLOAD_QUERIES = 10


@pytest.fixture(scope="module")
def scenario():
    dataset = standard_dataset(100, seed=31, min_vertices=10, max_vertices=35)
    generator = WorkloadGenerator(dataset, rng=32)
    mix = WorkloadMix(pool_size=30, repeat_fraction=0.3, shrink_fraction=0.3,
                      extend_fraction=0.3, fresh_fraction=0.1,
                      min_pattern_vertices=6, max_pattern_vertices=12)
    pool = generator.build_pattern_pool(mix)
    warmup = generator.generate(CACHE_SIZE, mix=mix, pattern_pool=pool, name="warmup")
    workload = generator.generate(WORKLOAD_QUERIES, mix="popular", name="workload-run")
    return dataset, warmup, workload


def run_one_policy(dataset, warmup, workload, policy):
    config = GCConfig(cache_capacity=CACHE_SIZE, window_size=10, replacement_policy=policy,
                      method="graphgrep-sx", method_options={"feature_size": 1})
    system = GraphCacheSystem(dataset, config)
    repeats = warm_counting_repeats(system, list(warmup))
    population = [entry.entry_id for entry in system.cache.entries()]
    # 50 executed queries; a repeat among them adds no copy
    assert len(population) == CACHE_SIZE - repeats
    result = run_workload(system, workload)
    return system, population, result


def test_bench_workload_run(benchmark, scenario):
    """Regenerate Fig. 2(b) hit percentages and Fig. 2(c) eviction sets."""
    dataset, warmup, workload = scenario

    results = {}
    populations = {}
    for policy in POLICIES:
        system, population, result = run_one_policy(dataset, warmup, workload, policy)
        populations[policy] = population
        results[policy] = result

    hd_view = WorkloadRunView(results["HD"])
    sections = [
        "Per-query hit percentage (HD policy, hits / cached graphs):",
        hd_view.hit_percentage_chart(),
        "",
        replacement_comparison(results, populations),
    ]
    write_report("E4_workload_run", "E4: The Workload Run (Fig. 2b / 2c)", "\n".join(sections))
    print("\n" + sections[0])
    print(sections[1])

    # Fig. 2(b): at least some queries in the workload produce cache hits
    hd_hits = results["HD"].hit_percentages
    assert len(hd_hits) == WORKLOAD_QUERIES
    assert any(value > 0 for value in hd_hits)

    # Fig. 2(c): replacement happened and at least two policies made
    # different eviction decisions
    eviction_sets = {policy: frozenset(result.evicted_entry_ids)
                     for policy, result in results.items()}
    assert any(eviction_sets.values()), "the full cache must evict to admit new queries"
    assert len(set(eviction_sets.values())) >= 2, (
        "different policies should cache out different graphs"
    )

    # identical answers regardless of policy
    reference = [sorted(report.answer) for report in results["LRU"].reports]
    for policy in POLICIES[1:]:
        assert [sorted(r.answer) for r in results[policy].reports] == reference

    benchmark.pedantic(
        lambda: run_one_policy(dataset, warmup, workload, "HD"), rounds=1, iterations=1
    )
