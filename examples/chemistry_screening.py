#!/usr/bin/env python3
"""Domain scenario: chemistry — substructure and superstructure screening.

Chemical databases answer two classic questions:

* *substructure search* (subgraph query): which compounds contain this
  functional group / scaffold?
* *superstructure search* (supergraph query): which fragment library members
  are contained in this target molecule?

This example runs both over GC, shows how a warm cache accelerates a
screening campaign in which chemists iterate on closely related scaffolds,
and persists the warm cache to disk so the next session starts hot.  It also
demonstrates SDF export of the synthetic dataset (the format the real AIDS
Antiviral Screen data ships in).

Run with:  python examples/chemistry_screening.py
"""

from __future__ import annotations

import random
import tempfile
from pathlib import Path

from repro import GCConfig, GraphCacheSystem, QueryType, molecule_dataset
from repro.cache import restore_cache, save_cache
from repro.dashboard import format_table
from repro.graph import save_sdf_file
from repro.graph.operations import extend_graph, random_connected_subgraph


def main() -> None:
    rng = random.Random(1234)
    workdir = Path(tempfile.mkdtemp(prefix="gc-chem-"))

    # 1. the compound library (and its SDF export, as a real deployment would keep)
    library = molecule_dataset(120, min_vertices=15, max_vertices=45, rng=rng)
    sdf_path = workdir / "library.sdf"
    save_sdf_file(library, sdf_path)
    print(f"Compound library: {len(library)} molecules (SDF written to {sdf_path})")

    config = GCConfig(cache_capacity=40, window_size=1, replacement_policy="HD",
                      method="graphgrep-sx", method_options={"feature_size": 1})
    system = GraphCacheSystem(library, config)

    # 2. a screening campaign: a scaffold and several close variants
    scaffold = random_connected_subgraph(library[0], 10, rng=rng)
    variants = [random_connected_subgraph(scaffold, 7, rng=rng) for _ in range(3)]
    labels = sorted({label for graph in library for label in graph.label_set()})
    decorated = [extend_graph(scaffold, 2, labels=labels, rng=rng) for _ in range(2)]

    print("\nSubstructure screening campaign (subgraph queries):")
    rows = []
    for name, pattern in [("scaffold", scaffold), ("fragment A", variants[0]),
                          ("fragment B", variants[1]), ("fragment C", variants[2]),
                          ("decorated 1", decorated[0]), ("decorated 2", decorated[1]),
                          ("scaffold (re-run)", scaffold.copy())]:
        report = system.run_query(pattern.copy(), QueryType.SUBGRAPH)
        rows.append({
            "pattern": name,
            "|V|": pattern.num_vertices,
            "hits in library": len(report.answer),
            "C_M": report.baseline_tests,
            "verified": len(report.verified_candidates),
            "cache hits": report.num_hits,
        })
    print(format_table(rows))

    # 3. superstructure search: which cached fragments are inside a target?
    target = library[0]
    report = system.run_query(target.copy(), QueryType.SUPERGRAPH)
    print(f"\nSuperstructure search for compound {target.graph_id}: "
          f"{len(report.answer)} library molecules are contained in it "
          f"({report.dataset_tests} sub-iso tests).")

    aggregate = system.aggregate()
    print(f"\nCampaign summary: hit ratio {aggregate.hit_ratio:.2f}, "
          f"{aggregate.total_dataset_tests} sub-iso tests with GC vs "
          f"{aggregate.total_baseline_tests} for Method M alone "
          f"({aggregate.test_speedup:.2f}x).")

    # 4. persist the warm cache so the next session starts hot
    snapshot = workdir / "warm_cache.json"
    saved = save_cache(system.cache, snapshot)
    fresh = GraphCacheSystem(library, config)
    restored = restore_cache(fresh.cache, snapshot)
    repeat = fresh.run_query(scaffold.copy(), QueryType.SUBGRAPH)
    print(f"\nPersisted {saved} cached queries to {snapshot}; a fresh session restored "
          f"{restored} of them and answered the scaffold query with "
          f"{repeat.dataset_tests} sub-iso tests (exact hit: "
          f"{repeat.exact_hit_entry is not None}).")


if __name__ == "__main__":
    main()
