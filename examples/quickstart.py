#!/usr/bin/env python3
"""Quickstart: deploy GC over a Method M and run a few queries.

This is the five-minute tour of the library:

1. build (or load) a dataset of labelled graphs;
2. wrap it in a :class:`GraphCacheSystem` with a cache configuration;
3. run subgraph queries and look at per-query reports;
4. inspect the aggregate statistics the Demonstrator would show.

Run with:  python examples/quickstart.py
"""

from __future__ import annotations

from repro import GCConfig, GraphCacheSystem, molecule_dataset
from repro.dashboard import format_table
from repro.graph.operations import random_connected_subgraph


def main() -> None:
    # 1. an AIDS-like dataset of 100 synthetic molecules (the demo's setup)
    dataset = molecule_dataset(100, min_vertices=10, max_vertices=40, rng=7)

    # 2. GC deployed over the GraphGrepSX FTV method with the HD policy
    config = GCConfig(
        cache_capacity=50,
        window_size=1,          # admit every executed query immediately (interactive session)
        replacement_policy="HD",
        method="graphgrep-sx",
        method_options={"feature_size": 2},
    )
    system = GraphCacheSystem(dataset, config)

    # 3. run a handful of related queries: a pattern, the same pattern again
    #    (exact hit), a piece of it (sub-case hit) and an extension of it
    pattern = random_connected_subgraph(dataset[0], 8, rng=1)
    smaller = random_connected_subgraph(pattern, 5, rng=2)

    print("Running four related subgraph queries...\n")
    rows = []
    for name, graph in [
        ("pattern", pattern.copy()),
        ("pattern again", pattern.copy()),
        ("piece of pattern", smaller),
        ("unrelated", random_connected_subgraph(dataset[50], 7, rng=3)),
    ]:
        report = system.run_query(graph, "subgraph")
        rows.append(
            {
                "query": name,
                "answers": len(report.answer),
                "C_M": report.baseline_tests,
                "verified": len(report.verified_candidates),
                "sub hits": len(report.sub_hit_entries),
                "super hits": len(report.super_hit_entries),
                "exact": report.exact_hit_entry is not None,
                "tests saved": report.tests_saved,
            }
        )
    print(format_table(rows))

    # 4. aggregate statistics
    aggregate = system.aggregate()
    print("\nAggregate over the session:")
    print(f"  queries processed : {aggregate.num_queries}")
    print(f"  cache hit ratio   : {aggregate.hit_ratio:.2f}")
    print(f"  sub-iso tests     : {aggregate.total_dataset_tests} "
          f"(Method M alone would need {aggregate.total_baseline_tests})")
    print(f"  sub-iso speedup   : {aggregate.test_speedup:.2f}x")
    print(f"  cache memory      : {system.cache_memory_bytes():,} bytes "
          f"({100 * system.memory_overhead_ratio():.1f}% of the FTV index)")


if __name__ == "__main__":
    main()
