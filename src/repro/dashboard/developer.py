"""Developer Monitor: introspection for "skilled developers".

Where the End-User monitor narrates scenarios, the developer monitor exposes
the raw operational metrics of a running :class:`GraphCacheSystem`: the
configuration, Method M's index statistics, per-entry cache utilities under
the active policy, and memory accounting (the experiment II overhead
numbers).
"""

from __future__ import annotations

from repro.dashboard.ascii_viz import format_table
from repro.runtime.system import GraphCacheSystem


class DeveloperMonitor:
    """Programmatic and textual views of a running system's internals."""

    def __init__(self, system: GraphCacheSystem) -> None:
        self.system = system

    # ------------------------------------------------------------------ #
    # structured views
    # ------------------------------------------------------------------ #
    def configuration(self) -> dict[str, object]:
        """The deployed configuration, method and cache description."""
        return self.system.describe()

    def cache_entries(self) -> list[dict[str, object]]:
        """Per-entry statistics plus the active policy's utility score.

        Aggregates over every cache the system owns — one for the single
        engine, one per shard for a sharded scatter-gather system.
        """
        rows: list[dict[str, object]] = []
        for cache in self.system.all_caches():
            policy = cache.policy
            for entry in cache.entries():
                row: dict[str, object] = {
                    "entry_id": entry.entry_id,
                    "vertices": entry.num_vertices,
                    "edges": entry.num_edges,
                    "answers": len(entry.answer),
                    "utility": policy.utility(entry),
                }
                row.update(entry.stats.snapshot())
                rows.append(row)
        return rows

    def memory_report(self) -> dict[str, float]:
        """Cache vs index memory (experiment II accounting)."""
        cache_bytes = self.system.cache_memory_bytes()
        index_bytes = self.system.index_memory_bytes()
        return {
            "cache_bytes": cache_bytes,
            "index_bytes": index_bytes,
            "cache_over_index_percent": (
                100.0 * cache_bytes / index_bytes if index_bytes else float("inf")
            ),
        }

    def aggregate_metrics(self) -> dict[str, float]:
        """Workload-level metrics collected by the Statistics Manager."""
        aggregate = self.system.aggregate()
        return {
            "queries": aggregate.num_queries,
            "hit_ratio": aggregate.hit_ratio,
            "sub_hits": aggregate.num_sub_hits,
            "super_hits": aggregate.num_super_hits,
            "exact_hits": aggregate.num_exact_hits,
            "dataset_tests": aggregate.total_dataset_tests,
            "baseline_tests": aggregate.total_baseline_tests,
            "probe_tests": aggregate.total_probe_tests,
            "test_speedup": aggregate.test_speedup,
            "time_speedup": aggregate.time_speedup,
        }

    # ------------------------------------------------------------------ #
    # text rendering
    # ------------------------------------------------------------------ #
    def render_cache_table(self) -> str:
        """Cache contents with utilities as a text table."""
        rows = self.cache_entries()
        if not rows:
            return "(cache is empty or disabled)"
        columns = ["entry_id", "vertices", "edges", "answers", "hit_count",
                   "tests_saved", "seconds_saved", "utility"]
        return format_table(rows, columns=columns)

    def render_text(self) -> str:
        """Full developer dashboard as text."""
        memory = self.memory_report()
        metrics = self.aggregate_metrics()
        sections = [
            "Developer Monitor",
            "=================",
            "",
            "Aggregate metrics:",
            format_table([metrics]),
            "",
            "Memory:",
            format_table([memory]),
            "",
            "Cache contents:",
            self.render_cache_table(),
        ]
        return "\n".join(sections)
