#!/usr/bin/env python3
"""Domain scenario: social-network pattern queries that narrow over time.

The paper's introduction motivates GC with query sessions that "start off
broad (e.g., all the people in a geographic location) and become narrower
(e.g., those having specific demographics)".  This example models exactly
that: a dataset of community graphs (power-law labelled graphs) and an
analyst session in which each query is a refinement (supergraph) of the
previous pattern — so every earlier query is a sub-case hit for the later
ones, and GC keeps shrinking the candidate sets.

Run with:  python examples/social_network_scenario.py
"""

from __future__ import annotations

import random

from repro import GCConfig, GraphCacheSystem, QueryType, synthetic_dataset
from repro.dashboard import format_table
from repro.graph.operations import extend_graph, random_connected_subgraph


def main() -> None:
    rng = random.Random(99)

    # a dataset of 60 community graphs with 8 demographic labels
    dataset = synthetic_dataset(60, kind="powerlaw", rng=rng, num_vertices=45, num_labels=8)
    labels = sorted({label for graph in dataset for label in graph.label_set()})

    config = GCConfig(
        cache_capacity=30,
        window_size=1,          # interactive session: every query is admitted immediately
        replacement_policy="HD",
        method="graphgrep-sx",
        method_options={"feature_size": 2},
    )
    system = GraphCacheSystem(dataset, config)

    # the analyst session: a broad 4-vertex pattern, then 4 successive
    # refinements, each adding constraints (vertices/edges) to the last
    broad = random_connected_subgraph(dataset[0], 4, rng=rng)
    session = [broad]
    for _ in range(4):
        session.append(extend_graph(session[-1], 1, labels=labels, rng=rng,
                                    extra_edge_probability=0.5))

    print("Analyst session: one broad pattern, four successive refinements.\n")
    rows = []
    for step, pattern in enumerate(session):
        report = system.run_query(pattern.copy(), QueryType.SUBGRAPH)
        rows.append(
            {
                "step": f"refinement {step}" if step else "broad pattern",
                "|V|": pattern.num_vertices,
                "answers": len(report.answer),
                "C_M": report.baseline_tests,
                "verified": len(report.verified_candidates),
                "super hits": len(report.super_hit_entries),
                "tests saved": report.tests_saved,
            }
        )
    print(format_table(rows))

    aggregate = system.aggregate()
    print(
        f"\nSession total: {aggregate.total_dataset_tests} sub-iso tests with GC "
        f"vs {aggregate.total_baseline_tests} for Method M alone "
        f"(speedup {aggregate.test_speedup:.2f}x, hit ratio {aggregate.hit_ratio:.2f})."
    )


if __name__ == "__main__":
    main()
