"""Dashboard Manager: end-user scenarios, developer monitor and visualisation."""

from repro.dashboard.ascii_viz import bar_chart, format_table, id_grid
from repro.dashboard.developer import DeveloperMonitor
from repro.dashboard.journey import JourneyStep, QueryJourney
from repro.dashboard.svg import render_graph_svg
from repro.dashboard.workload_view import (
    WorkloadRunView,
    policy_speedup_table,
    replacement_comparison,
)

__all__ = [
    "bar_chart",
    "id_grid",
    "format_table",
    "QueryJourney",
    "JourneyStep",
    "WorkloadRunView",
    "replacement_comparison",
    "policy_speedup_table",
    "DeveloperMonitor",
    "render_graph_svg",
]
