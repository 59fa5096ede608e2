"""Integration / property tests for GC's headline correctness guarantee.

The paper: "GC does not produce any false negative or false positive".  We
check it end-to-end: for randomly generated datasets and workloads (with
repeats, shrinks and extensions to force exact/sub/super hits), the answers
produced with the cache enabled equal the answers produced by Method M alone
— for every policy, every Method M, and both query semantics.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.graph import molecule_dataset
from repro.methods import DirectSIMethod
from repro.runtime import GCConfig, GraphCacheSystem
from repro.workload import WorkloadGenerator, WorkloadMix


def reference_answers(dataset, workload):
    method = DirectSIMethod()
    method.build(dataset)
    return [method.execute(q.graph, q.query_type).answer for q in workload]


@pytest.fixture(scope="module")
def dataset():
    return molecule_dataset(15, min_vertices=8, max_vertices=14, rng=301)


@pytest.fixture(scope="module")
def workload(dataset):
    mix = WorkloadMix(repeat_fraction=0.3, shrink_fraction=0.3, extend_fraction=0.3,
                      fresh_fraction=0.1, pool_size=8)
    return WorkloadGenerator(dataset, rng=302).generate(20, mix=mix)


@pytest.fixture(scope="module")
def expected(dataset, workload):
    return reference_answers(dataset, workload)


@pytest.mark.parametrize("policy", ["LRU", "POP", "PIN", "PINC", "HD"])
def test_no_false_results_under_any_policy(dataset, workload, expected, policy):
    config = GCConfig(cache_capacity=10, window_size=2, replacement_policy=policy,
                      method="direct-si")
    system = GraphCacheSystem(dataset, config)
    for query, answer in zip(workload, expected):
        report = system.run_query(query)
        assert report.answer == answer


@pytest.mark.parametrize("method,options", [
    ("direct-si", {}),
    ("graphgrep-sx", {"feature_size": 2}),
    ("ct-index", {"num_bits": 512}),
])
def test_no_false_results_over_any_method(dataset, workload, expected, method, options):
    config = GCConfig(cache_capacity=10, window_size=2, method=method, method_options=options)
    system = GraphCacheSystem(dataset, config)
    for query, answer in zip(workload, expected):
        report = system.run_query(query)
        assert report.answer == answer


def test_guaranteed_sets_are_really_guaranteed(dataset, workload, expected):
    """S must be a subset of the true answer; S' must not intersect it."""
    system = GraphCacheSystem(dataset, GCConfig(cache_capacity=10, window_size=2,
                                                method="direct-si"))
    for query, answer in zip(workload, expected):
        report = system.run_query(query)
        assert report.guaranteed_answers <= answer
        assert not (report.guaranteed_non_answers & answer)


def test_supergraph_workload_correctness(dataset):
    mix = WorkloadMix(repeat_fraction=0.4, shrink_fraction=0.3, extend_fraction=0.2,
                      fresh_fraction=0.1, pool_size=6, query_type="supergraph",
                      min_pattern_vertices=8, max_pattern_vertices=14)
    workload = WorkloadGenerator(dataset, rng=305).generate(12, mix=mix)
    expected = reference_answers(dataset, workload)
    system = GraphCacheSystem(dataset, GCConfig(cache_capacity=8, window_size=2,
                                                method="direct-si"))
    for query, answer in zip(workload, expected):
        assert system.run_query(query).answer == answer


@settings(max_examples=8, deadline=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
@given(seed=st.integers(0, 10_000))
def test_random_small_universes_no_false_results(seed):
    """Fully randomised end-to-end check on tiny universes (hypothesis)."""
    rng = random.Random(seed)
    dataset = molecule_dataset(8, min_vertices=6, max_vertices=10, rng=rng)
    mix = WorkloadMix(pool_size=4, min_pattern_vertices=3, max_pattern_vertices=7,
                      resize_vertices=2)
    workload = WorkloadGenerator(dataset, rng=rng).generate(8, mix=mix)
    expected = reference_answers(dataset, workload)
    system = GraphCacheSystem(
        dataset,
        GCConfig(cache_capacity=5, window_size=1, method="direct-si",
                 replacement_policy=rng.choice(["LRU", "POP", "PIN", "PINC", "HD"])),
    )
    for query, answer in zip(workload, expected):
        assert system.run_query(query).answer == answer
