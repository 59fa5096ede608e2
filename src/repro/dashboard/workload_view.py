"""Scenario II — "The Workload Run".

End-user view of a workload execution: per-query sub/super hit percentages
(Fig. 2(b)) and, after the run, the cache replacement decisions of different
policies side by side (Fig. 2(c) — "different graphs are cached out in
different caches").
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.dashboard.ascii_viz import bar_chart, format_table, id_grid
from repro.workload.runner import WorkloadRunResult


@dataclass
class WorkloadRunView:
    """Renders one workload run for the end-user monitor."""

    result: WorkloadRunResult

    def hit_percentage_chart(self) -> str:
        """Per-query hit percentage as a bar chart (one bar per query)."""
        values = [
            (f"q{position + 1}", percentage)
            for position, percentage in enumerate(self.result.hit_percentages)
        ]
        if not values:
            return "(no queries)"
        return bar_chart(values, width=30)

    def summary_table(self) -> str:
        """Aggregate summary (hit ratio, speedups, test counts)."""
        return format_table([self.result.summary()])

    def render_text(self) -> str:
        """Full plain-text Workload Run view."""
        lines = [
            f"The Workload Run — workload {self.result.workload_name!r} "
            f"(policy {self.result.policy}, Method M {self.result.method})",
            "",
            "Per-query cache-hit percentage (hits / cached graphs):",
            self.hit_percentage_chart(),
            "",
            "Summary:",
            self.summary_table(),
        ]
        return "\n".join(lines)


def replacement_comparison(
    results: dict[str, WorkloadRunResult], cache_entry_ids: dict[str, list[int]]
) -> str:
    """Fig. 2(c): which cached graphs each policy evicted.

    ``results`` maps policy name → run result; ``cache_entry_ids`` maps
    policy name → the ids of the graphs cached *before* the run (the
    population the evictions are drawn from).
    """
    sections: list[str] = ["Cache replacement across policies (evicted entries bracketed):"]
    for policy, result in results.items():
        universe = cache_entry_ids.get(policy, [])
        evicted = set(result.evicted_entry_ids)
        sections.append(f"\n{policy}:")
        sections.append(id_grid(universe, evicted, columns=10))
    return "\n".join(sections)


def policy_speedup_table(results: dict[str, WorkloadRunResult]) -> str:
    """Experiment E1's comparison table: one row per policy."""
    rows = [result.summary() for result in results.values()]
    return format_table(
        rows,
        columns=["policy", "workload", "hit_ratio", "test_speedup", "time_speedup",
                 "dataset_tests", "baseline_tests"],
    )
