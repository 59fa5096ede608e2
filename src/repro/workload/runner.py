"""Workload runner: execute a workload over GC and over baselines, compare.

This is the programmatic counterpart of the demo's "Workload Run" scenario
and the engine behind the benchmark harnesses: it runs a workload against a
:class:`~repro.runtime.system.GraphCacheSystem`, collects per-query reports,
and offers convenience functions that compare replacement policies
(experiment E1) or Methods M (experiment E7) on identical workloads.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.cache.statistics import AggregateStatistics, StatisticsManager
from repro.graph.graph import Graph
from repro.runtime.config import GCConfig
from repro.runtime.report import QueryReport
from repro.runtime.system import GraphCacheSystem
from repro.workload.workload import Workload


@dataclass
class WorkloadRunResult:
    """Outcome of running one workload on one system configuration."""

    workload_name: str
    policy: str
    method: str
    reports: list[QueryReport] = field(default_factory=list)
    aggregate: AggregateStatistics = field(default_factory=AggregateStatistics)
    #: Per-query hit percentage (hits / cached graphs the query saw), in
    #: workload order — the paper's Fig. 2(b) chart.
    hit_percentages: list[float] = field(default_factory=list)
    evicted_entry_ids: list[int] = field(default_factory=list)
    cache_memory_bytes: int = 0
    index_memory_bytes: int = 0
    #: Per-pipeline-stage latency rows (stage, total/mean seconds, share).
    stage_breakdown: list[dict[str, float]] = field(default_factory=list)
    #: Scatter planning metrics of a sharded system (mean fan-out, skip
    #: rates, summary health); ``None`` for a single-system run.
    scatter: dict | None = None

    @property
    def test_speedup(self) -> float:
        """Workload-level speedup in number of dataset sub-iso tests."""
        return self.aggregate.test_speedup

    @property
    def time_speedup(self) -> float:
        """Workload-level speedup in query time: an estimate (see ``statistics``)."""
        return self.aggregate.time_speedup

    def summary(self) -> dict[str, object]:
        """One-row summary used by comparison tables."""
        row: dict[str, object] = {
            "workload": self.workload_name,
            "policy": self.policy,
            "method": self.method,
            "queries": self.aggregate.num_queries,
            "hit_ratio": round(self.aggregate.hit_ratio, 3),
            "test_speedup": round(self.test_speedup, 3),
            "time_speedup": round(self.time_speedup, 3),
            "dataset_tests": self.aggregate.total_dataset_tests,
            "baseline_tests": self.aggregate.total_baseline_tests,
            "probe_tests": self.aggregate.total_probe_tests,
        }
        if self.scatter is not None:
            row["scatter_mode"] = self.scatter["mode"]
            row["mean_fanout"] = self.scatter["stats"]["mean_fanout"]
        return row


def run_workload(system: GraphCacheSystem, workload: Workload) -> WorkloadRunResult:
    """Run every query of ``workload`` through ``system``, in order, and summarise.

    The statistics describe exactly this workload's queries: they are folded
    from its own reports, not read off the system, whose manager also holds
    any query it ran before; likewise the evicted ids are those this
    workload's queries evicted.  ``system`` may equally be a
    :class:`~repro.sharding.system.ShardedGraphCacheSystem` — eviction and
    memory accounting then aggregate over every shard's cache — or a
    :class:`~repro.api.service.LocalGraphService` facade, which is unwrapped
    to the system it fronts (full per-query reports need the engine, not
    just the service envelope surface).
    """
    from repro.api.service import LocalGraphService

    if isinstance(system, LocalGraphService):
        system = system.system
    caches = system.all_caches()
    # the caches keep every eviction report they ever made: skip earlier runs'
    rounds_before = [cache.eviction_rounds() for cache in caches]
    reports = [system.run_query(query) for query in workload]
    statistics = StatisticsManager()
    for report in reports:
        statistics.record(report)
    evicted: list[int] = []
    for cache, before in zip(caches, rounds_before):
        for report in cache.eviction_reports(since=before):
            evicted.extend(report.evicted)
    scatter_metrics = getattr(system, "scatter_metrics", None)
    return WorkloadRunResult(
        workload_name=workload.name,
        policy=system.config.replacement_policy if caches else "none",
        method=system.method.name,
        reports=reports,
        aggregate=statistics.aggregate(),
        hit_percentages=[report.hit_percentage for report in reports],
        evicted_entry_ids=evicted,
        cache_memory_bytes=system.cache_memory_bytes(),
        index_memory_bytes=system.index_memory_bytes(),
        stage_breakdown=statistics.stage_breakdown(),
        scatter=scatter_metrics() if scatter_metrics is not None else None,
    )


def run_with_policy(
    dataset: list[Graph],
    workload: Workload,
    policy: str,
    config: GCConfig | None = None,
    warmup: Workload | None = None,
) -> WorkloadRunResult:
    """Build a fresh system with ``policy`` and run the workload on it.

    Honours ``config.num_shards``: with more than one shard the policy runs
    independently inside every shard's cache.
    """
    from repro.sharding import make_system

    base = config.to_dict() if config is not None else GCConfig().to_dict()
    base["replacement_policy"] = policy
    with make_system(dataset, GCConfig.from_dict(base)) as system:
        if warmup is not None:
            system.warm_cache(list(warmup))
        return run_workload(system, workload)


def compare_policies(
    dataset: list[Graph],
    workload: Workload,
    policies: list[str],
    config: GCConfig | None = None,
    warmup: Workload | None = None,
) -> dict[str, WorkloadRunResult]:
    """Run the same workload under each policy on identical fresh systems."""
    return {
        policy: run_with_policy(dataset, workload, policy, config=config, warmup=warmup)
        for policy in policies
    }


def compare_methods(
    dataset: list[Graph],
    workload: Workload,
    methods: list[str],
    config: GCConfig | None = None,
    method_options: dict[str, dict] | None = None,
) -> dict[str, dict[str, WorkloadRunResult]]:
    """For each Method M, run the workload with and without GC (experiment E7)."""
    results: dict[str, dict[str, WorkloadRunResult]] = {}
    method_options = method_options or {}
    base_config = config or GCConfig()
    for method_name in methods:
        per_method: dict[str, WorkloadRunResult] = {}
        for cache_enabled, label in ((False, "baseline"), (True, "gc")):
            payload = base_config.to_dict()
            payload["cache_enabled"] = cache_enabled
            payload["method"] = method_name
            payload["method_options"] = method_options.get(method_name, {})
            with GraphCacheSystem(dataset, GCConfig.from_dict(payload)) as system:
                per_method[label] = run_workload(system, workload)
        results[method_name] = per_method
    return results
