"""Shared helpers for the benchmark harness.

Every benchmark regenerates one table/figure of the paper's evaluation (see
DESIGN.md's experiment index).  The helpers here build the standard datasets
and workloads, format result tables, and write each experiment's report to
``benchmarks/results/<experiment>.txt`` so the regenerated numbers survive the
pytest run (stdout is captured by pytest).
"""

from __future__ import annotations

from pathlib import Path

from repro.dashboard import format_table
from repro.graph import molecule_dataset
from repro.graph.graph import Graph
from repro.workload import Workload, WorkloadGenerator, WorkloadMix

RESULTS_DIR = Path(__file__).parent / "results"


def standard_dataset(num_graphs: int = 100, seed: int = 2018,
                     min_vertices: int = 10, max_vertices: int = 35) -> list[Graph]:
    """The AIDS-like dataset used by most experiments (100 molecule graphs)."""
    return molecule_dataset(num_graphs, min_vertices=min_vertices,
                            max_vertices=max_vertices, rng=seed)


def standard_workload(dataset: list[Graph], num_queries: int, mix: str | WorkloadMix,
                      seed: int = 7, name: str | None = None) -> Workload:
    """A workload over the standard dataset with a named or explicit mix."""
    generator = WorkloadGenerator(dataset, rng=seed)
    return generator.generate(num_queries, mix=mix, name=name)


def write_report(experiment: str, title: str, body: str) -> Path:
    """Write one experiment's regenerated table to benchmarks/results/."""
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    path = RESULTS_DIR / f"{experiment}.txt"
    content = f"{title}\n{'=' * len(title)}\n\n{body}\n"
    path.write_text(content, encoding="utf-8")
    return path


def rows_to_report(experiment: str, title: str, rows: list[dict], columns=None) -> str:
    """Format rows as a table, write the report file, and return the text."""
    table = format_table(rows, columns=columns)
    write_report(experiment, title, table)
    return table
