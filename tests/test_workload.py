"""Tests for the workload model, generators and runner."""

from __future__ import annotations

import pytest

from repro.errors import WorkloadError
from repro.graph import molecule_dataset
from repro.isomorphism import VF2Matcher
from repro.query_model import QueryType
from repro.runtime import GCConfig
from repro.workload import (
    STANDARD_MIXES,
    Workload,
    WorkloadGenerator,
    WorkloadMix,
    compare_methods,
    compare_policies,
    generate_standard_workloads,
    run_with_policy,
    run_workload,
)
from repro.runtime.system import GraphCacheSystem


@pytest.fixture(scope="module")
def dataset():
    return molecule_dataset(15, min_vertices=8, max_vertices=14, rng=77)


class TestWorkloadMix:
    def test_fraction_normalisation(self):
        mix = WorkloadMix(repeat_fraction=2, shrink_fraction=1, extend_fraction=1, fresh_fraction=0)
        fractions = mix.normalised_fractions()
        assert sum(fractions) == pytest.approx(1.0)
        assert fractions[0] == pytest.approx(0.5)

    def test_all_zero_fractions_rejected(self):
        mix = WorkloadMix(repeat_fraction=0, shrink_fraction=0, extend_fraction=0, fresh_fraction=0)
        with pytest.raises(WorkloadError):
            mix.normalised_fractions()

    def test_standard_mixes_exist(self):
        assert {"uniform", "popular", "sub-heavy", "super-heavy", "drift", "fresh"} <= set(
            STANDARD_MIXES
        )


class TestWorkloadGenerator:
    def test_requires_dataset(self):
        with pytest.raises(WorkloadError):
            WorkloadGenerator([])

    def test_generates_requested_count(self, dataset):
        workload = WorkloadGenerator(dataset, rng=1).generate(25, mix="uniform")
        assert len(workload) == 25

    def test_negative_count_rejected(self, dataset):
        with pytest.raises(WorkloadError):
            WorkloadGenerator(dataset, rng=1).generate(-1)

    def test_unknown_standard_mix_rejected(self, dataset):
        with pytest.raises(WorkloadError):
            WorkloadGenerator(dataset, rng=1).generate(5, mix="bogus")

    def test_reproducible_with_seed(self, dataset):
        first = WorkloadGenerator(dataset, rng=9).generate(10, mix="popular")
        second = WorkloadGenerator(dataset, rng=9).generate(10, mix="popular")
        assert [q.graph.to_dict() for q in first] == [q.graph.to_dict() for q in second]

    def test_modes_recorded_in_metadata(self, dataset):
        workload = WorkloadGenerator(dataset, rng=2).generate(30, mix=WorkloadMix())
        modes = {query.metadata["mode"] for query in workload}
        assert modes <= {"repeat", "shrink", "extend", "fresh"}
        assert len(modes) >= 2

    def test_shrink_queries_are_subgraphs_of_pool_pattern(self, dataset):
        mix = WorkloadMix(repeat_fraction=0, shrink_fraction=1, extend_fraction=0, fresh_fraction=0)
        generator = WorkloadGenerator(dataset, rng=3)
        pool = generator.build_pattern_pool(mix)
        workload = generator.generate(8, mix=mix, pattern_pool=pool)
        matcher = VF2Matcher()
        for query in workload:
            base = pool[query.metadata["pool_index"]]
            assert matcher.is_subgraph(query.graph, base)

    def test_extend_queries_are_supergraphs_of_pool_pattern(self, dataset):
        mix = WorkloadMix(repeat_fraction=0, shrink_fraction=0, extend_fraction=1, fresh_fraction=0)
        generator = WorkloadGenerator(dataset, rng=4)
        pool = generator.build_pattern_pool(mix)
        workload = generator.generate(8, mix=mix, pattern_pool=pool)
        matcher = VF2Matcher()
        for query in workload:
            base = pool[query.metadata["pool_index"]]
            assert matcher.is_subgraph(base, query.graph)

    def test_supergraph_workload_type(self, dataset):
        mix = WorkloadMix(query_type=QueryType.SUPERGRAPH)
        workload = WorkloadGenerator(dataset, rng=5).generate(5, mix=mix)
        assert workload.query_types == {QueryType.SUPERGRAPH}

    def test_zipf_skews_towards_head_of_pool(self, dataset):
        mix = WorkloadMix(zipf_alpha=2.0, repeat_fraction=1, shrink_fraction=0,
                          extend_fraction=0, fresh_fraction=0, pool_size=10)
        workload = WorkloadGenerator(dataset, rng=6).generate(60, mix=mix)
        indices = [query.metadata["pool_index"] for query in workload]
        head_share = sum(1 for index in indices if index < 3) / len(indices)
        assert head_share > 0.5

    def test_standard_workloads_helper(self, dataset):
        workloads = generate_standard_workloads(dataset, 6, rng=7, names=["uniform", "drift"])
        assert set(workloads) == {"uniform", "drift"}
        assert all(len(w) == 6 for w in workloads.values())


class TestWorkloadSerialisation:
    def test_round_trip(self, dataset, tmp_path):
        workload = WorkloadGenerator(dataset, rng=8).generate(6, mix="uniform", name="demo")
        path = tmp_path / "workload.json"
        workload.save(path)
        restored = Workload.load(path)
        assert restored.name == "demo"
        assert len(restored) == len(workload)
        assert [q.graph.to_dict() for q in restored] == [q.graph.to_dict() for q in workload]

    def test_summary(self, dataset):
        workload = WorkloadGenerator(dataset, rng=9).generate(5, mix="uniform")
        summary = workload.summary()
        assert summary["num_queries"] == 5
        assert "avg_vertices" in summary

    def test_from_dict_requires_queries(self):
        with pytest.raises(WorkloadError):
            Workload.from_dict({"name": "x"})

    def test_empty_workload_summary(self):
        assert Workload(name="empty").summary()["num_queries"] == 0


class TestRunner:
    @pytest.fixture(scope="class")
    def workload(self, dataset):
        return WorkloadGenerator(dataset, rng=10).generate(12, mix="popular")

    def test_run_workload(self, dataset, workload):
        system = GraphCacheSystem(dataset, GCConfig(cache_capacity=10, window_size=2))
        result = run_workload(system, workload)
        assert result.aggregate.num_queries == len(workload)
        assert len(result.reports) == len(workload)
        assert result.policy == "HD"
        summary = result.summary()
        assert summary["queries"] == len(workload)

    def test_run_with_policy_and_warmup(self, dataset, workload):
        warmup = WorkloadGenerator(dataset, rng=11).generate(4, mix="uniform")
        result = run_with_policy(
            dataset, workload, "LRU", config=GCConfig(cache_capacity=8, window_size=2),
            warmup=warmup,
        )
        assert result.policy == "LRU"
        assert result.aggregate.num_queries == len(workload)

    def test_compare_policies_same_answers(self, dataset, workload):
        results = compare_policies(
            dataset, workload, ["LRU", "HD"], config=GCConfig(cache_capacity=8, window_size=2)
        )
        assert set(results) == {"LRU", "HD"}
        answers_lru = [sorted(report.answer) for report in results["LRU"].reports]
        answers_hd = [sorted(report.answer) for report in results["HD"].reports]
        assert answers_lru == answers_hd

    def test_compare_methods_gc_never_worse_in_tests(self, dataset, workload):
        results = compare_methods(
            dataset,
            workload,
            ["direct-si"],
            config=GCConfig(cache_capacity=10, window_size=2),
        )
        baseline = results["direct-si"]["baseline"].aggregate
        with_gc = results["direct-si"]["gc"].aggregate
        assert with_gc.total_dataset_tests <= baseline.total_dataset_tests
        # identical answers in both arms
        for base_report, gc_report in zip(
            results["direct-si"]["baseline"].reports, results["direct-si"]["gc"].reports
        ):
            assert base_report.answer == gc_report.answer
