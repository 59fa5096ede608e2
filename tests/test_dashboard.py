"""Tests for the dashboard layer (ASCII viz, journey, workload view, SVG)."""

from __future__ import annotations

import pytest

from repro.dashboard import (
    DeveloperMonitor,
    QueryJourney,
    WorkloadRunView,
    bar_chart,
    format_table,
    id_grid,
    policy_speedup_table,
    render_graph_svg,
    replacement_comparison,
)
from repro.graph import molecule_dataset, molecule_graph
from repro.graph.operations import random_connected_subgraph
from repro.runtime import GCConfig, GraphCacheSystem
from repro.workload import WorkloadGenerator, compare_policies, run_workload
from tests.conftest import make_subgraph_queries


class TestAsciiPrimitives:
    def test_bar_chart_contains_labels_and_bars(self):
        chart = bar_chart({"LRU": 1.0, "HD": 2.0})
        assert "LRU" in chart and "HD" in chart
        assert "█" in chart

    def test_bar_chart_empty(self):
        assert bar_chart({}) == "(no data)"

    def test_bar_chart_zero_values(self):
        chart = bar_chart({"a": 0.0, "b": 0.0})
        assert "a" in chart

    def test_id_grid_highlights(self):
        grid = id_grid(range(10), {3, 7}, columns=5)
        assert "[3]" in grid and "[7]" in grid
        assert grid.count("\n") == 1  # two rows of five

    def test_id_grid_empty(self):
        assert id_grid([], []) == "(empty)"

    def test_format_table_alignment(self):
        table = format_table([{"a": 1, "b": "x"}, {"a": 22, "b": "yy"}])
        lines = table.splitlines()
        assert len(lines) == 4
        assert "a" in lines[0] and "b" in lines[0]

    def test_format_table_empty(self):
        assert format_table([]) == "(no rows)"


@pytest.fixture(scope="module")
def demo_run():
    """A small system with a warm cache and one interesting query report."""
    dataset = molecule_dataset(20, min_vertices=8, max_vertices=14, rng=5)
    system = GraphCacheSystem(
        dataset, GCConfig(cache_capacity=15, window_size=2, method="direct-si")
    )
    system.warm_cache(make_subgraph_queries(dataset, 8, 7, seed=6))
    query = random_connected_subgraph(dataset[0], 5, rng=9)
    report = system.run_query(query, "subgraph")
    return dataset, system, report


class TestQueryJourney:
    def test_steps_in_paper_order(self, demo_run):
        dataset, system, report = demo_run
        journey = QueryJourney(
            report,
            dataset_ids=[g.graph_id for g in dataset],
            cache_entry_ids=[entry.entry_id for entry in system.cache.entries()],
        )
        keys = [step.key for step in journey.steps()]
        assert keys == ["H", "C_M", "S", "S'", "H'", "C", "R", "A"]

    def test_render_text_mentions_speedup(self, demo_run):
        dataset, system, report = demo_run
        journey = QueryJourney(
            report,
            dataset_ids=[g.graph_id for g in dataset],
            cache_entry_ids=[entry.entry_id for entry in system.cache.entries()],
        )
        text = journey.render_text()
        assert "The Query Journey" in text
        assert "sub-iso tests" in text

    def test_step_render_contains_grid(self, demo_run):
        dataset, system, report = demo_run
        journey = QueryJourney(report, [g.graph_id for g in dataset], [])
        step = journey.steps()[1]
        assert "Candidate Set" in step.render()


    def test_an_exact_hit_says_no_filter_ran(self, demo_run):
        dataset = demo_run[0]
        system = GraphCacheSystem(dataset, GCConfig(cache_capacity=4, window_size=1))
        query = random_connected_subgraph(dataset[0], 5, rng=9)
        report = system.run_query(query, "subgraph")
        repeat = system.run_query(query.copy(), "subgraph")
        assert repeat.exact_hit_entry is not None and repeat.method_candidates == set()
        journey = QueryJourney(repeat, [g.graph_id for g in dataset], [])
        step = {step.key: step for step in journey.steps()}["C_M"]
        assert step.highlighted == []
        assert "filter did not run" in step.description
        assert f"counted {report.baseline_tests} candidates" in step.description
        assert f"from {report.baseline_tests} to 0" in journey.speedup_summary()


class TestWorkloadViews:
    @pytest.fixture(scope="class")
    def comparison(self):
        dataset = molecule_dataset(15, min_vertices=8, max_vertices=12, rng=8)
        workload = WorkloadGenerator(dataset, rng=2).generate(10, mix="popular")
        return compare_policies(
            dataset, workload, ["LRU", "HD"], config=GCConfig(cache_capacity=8, window_size=2)
        )

    def test_workload_run_view(self, comparison):
        view = WorkloadRunView(comparison["HD"])
        text = view.render_text()
        assert "The Workload Run" in text
        assert "hit" in text.lower()
        assert view.hit_percentage_chart() != "(no queries)"

    def test_policy_speedup_table(self, comparison):
        table = policy_speedup_table(comparison)
        assert "LRU" in table and "HD" in table
        assert "test_speedup" in table

    def test_replacement_comparison(self, comparison):
        universes = {policy: [1, 2, 3] for policy in comparison}
        text = replacement_comparison(comparison, universes)
        assert "LRU" in text and "HD" in text


class TestDeveloperMonitor:
    def test_full_render(self, demo_run):
        _dataset, system, _report = demo_run
        monitor = DeveloperMonitor(system)
        text = monitor.render_text()
        assert "Developer Monitor" in text
        assert "Cache contents" in text
        assert monitor.memory_report()["index_bytes"] >= 0
        assert monitor.aggregate_metrics()["queries"] >= 1
        assert len(monitor.cache_entries()) == len(system.cache.entries())

    def test_cache_disabled(self):
        dataset = molecule_dataset(5, min_vertices=6, max_vertices=8, rng=3)
        system = GraphCacheSystem(dataset, GCConfig(cache_enabled=False))
        monitor = DeveloperMonitor(system)
        assert monitor.cache_entries() == []
        assert "empty or disabled" in monitor.render_cache_table()


class TestSVG:
    def test_render_graph_svg_wellformed(self):
        graph = molecule_graph(8, rng=4)
        svg = render_graph_svg(graph, title="demo molecule")
        assert svg.startswith("<svg")
        assert svg.endswith("</svg>")
        assert svg.count("<circle") == graph.num_vertices
        assert svg.count("<line") == graph.num_edges
        assert "demo molecule" in svg

    def test_circular_layout_variant(self):
        graph = molecule_graph(5, rng=6)
        svg = render_graph_svg(graph, layout="circular")
        assert svg.count("<circle") == 5
