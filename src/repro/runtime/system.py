"""GraphCacheSystem: the public facade of the GC reproduction.

This is the class a downstream application embeds ("GC per se could be
plugged into general graph systems as a library").  It wires up Method M and
the graph cache from a :class:`GCConfig`, runs each query through the staged
pipeline of :mod:`repro.runtime.pipeline` (the paper's Fig. 3 dataflow), and
exposes a small API: run queries, inspect statistics, measure memory
overheads.

When the cache is disabled (or empty) the probe and prune stages contribute
nothing and the system behaves exactly like Method M: the answers are
identical in both modes, which is the property the test suite leans on.
Many queries may run through :meth:`GraphCacheSystem.run_query` at once: the
cache serialises its own mutations and a lock guards the running per-test
cost.
"""

from __future__ import annotations

import threading
from collections.abc import Iterable, Sequence
from functools import cached_property

from repro.cache.graph_cache import GraphCache
from repro.cache.pruner import CandidateSetPruner
from repro.cache.statistics import AggregateStatistics, StatisticsManager
from repro.errors import ConfigurationError
from repro.graph.graph import Graph
from repro.methods.base import MethodM
from repro.methods.registry import make_method
from repro.obs.logs import get_logger
from repro.query_model import Query, QueryType, as_query
from repro.runtime.config import GCConfig
from repro.runtime.pipeline import ExecutionContext, QueryPipeline
from repro.runtime.report import QueryReport

logger = get_logger("runtime")


class GraphCacheSystem:
    """GC deployed over a Method M for a fixed dataset."""

    def __init__(
        self,
        dataset: Sequence[Graph],
        config: GCConfig | None = None,
        method: MethodM | None = None,
    ) -> None:
        self.config = config or GCConfig()
        self.config.validate()
        self.dataset = list(dataset)
        if not self.dataset:
            raise ConfigurationError("the dataset must contain at least one graph")

        if method is None:
            method = make_method(self.config.method, **self.config.method_options)
        self.method = method
        self.method.build(self.dataset)

        self.cache: GraphCache | None = None
        if self.config.cache_enabled:
            self.cache = GraphCache(
                capacity=self.config.cache_capacity,
                policy=self.config.replacement_policy,
                window_size=self.config.window_size,
                semantic_hits=self.config.semantic_hits,
            )

        self.statistics = StatisticsManager()
        self.pruner = CandidateSetPruner()
        self.pipeline = QueryPipeline()
        #: Running average cost of one dataset sub-iso test (seconds); used to
        #: convert saved tests into saved time when a query runs no tests.
        self._average_test_cost = 0.0
        self._observed_tests = 0
        self._cost_lock = threading.Lock()

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #
    def all_caches(self) -> list[GraphCache]:
        """Every cache this system owns (0 or 1 here; N for sharded systems).

        The shared accessor the server and the workload runner use so they
        need not care whether they hold a single system or a
        :class:`~repro.sharding.system.ShardedGraphCacheSystem`.
        """
        return [self.cache] if self.cache is not None else []

    def close(self) -> None:
        """Nothing to release: an unsharded system owns no thread or socket.

        Kept so every system surface (sharded, process-backed, this one) is
        closed, and used as a context manager, the same way.
        """

    def __enter__(self) -> "GraphCacheSystem":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------ #
    # query execution
    # ------------------------------------------------------------------ #
    def run_query(
        self, query: Query | Graph, query_type: QueryType | str = QueryType.SUBGRAPH
    ) -> QueryReport:
        """Process one query (a :class:`Query` or a bare pattern graph).

        The cache may keep the pattern graph by reference, so editing it
        after the call is unsupported; query a copy instead.
        """
        query = as_query(query, query_type)
        ctx = ExecutionContext(query=query, system=self, report=QueryReport(query=query))
        self.pipeline.run(ctx)
        # Method M is not run a second time: its seconds are estimated from
        # its filter and its |C_M| tests at the running average test cost
        ctx.report.baseline_seconds = ctx.report.filter_seconds + (
            ctx.report.baseline_tests * self._average_test_cost
        )
        self.statistics.record(ctx.report)
        return ctx.report

    def run_queries(
        self,
        queries: Iterable[Query | Graph],
        query_type: QueryType | str = QueryType.SUBGRAPH,
    ) -> list[QueryReport]:
        """Process many queries in order and return their reports."""
        return [self.run_query(query, query_type) for query in queries]

    def run_batch(
        self,
        queries: Iterable[Query | Graph],
        query_type: QueryType | str = QueryType.SUBGRAPH,
    ) -> list[QueryReport]:
        """Process a batch in order on the calling thread.

        The batch entry point every shard surface shares (a sharded system
        scatters each shard its share of the batch at once).  Here it is
        :meth:`run_queries`.
        """
        return self.run_queries(queries, query_type)

    # ------------------------------------------------------------------ #
    # test-cost accounting (read by the pipeline stages)
    # ------------------------------------------------------------------ #
    def per_test_cost(self, tests: int, seconds: float) -> float:
        """Cost of one sub-iso test for this query (falls back to the average)."""
        if tests > 0:
            return seconds / tests
        return self._average_test_cost

    def observe_test_cost(self, tests: int, seconds: float) -> None:
        """Fold one query's verification cost into the running average."""
        if tests <= 0:
            return
        with self._cost_lock:
            total = self._average_test_cost * self._observed_tests + seconds
            self._observed_tests += tests
            self._average_test_cost = total / self._observed_tests

    def warm_cache(
        self,
        queries: Iterable[Query | Graph],
        query_type: QueryType | str = QueryType.SUBGRAPH,
        reset_statistics: bool = True,
    ) -> None:
        """Execute queries purely to populate the cache, then flush the window.

        The demo's scenarios start from "a graph cache with 50 executed
        queries"; this reproduces that warm state.  Statistics collected
        during warm-up are discarded by default.
        """
        for query in queries:
            self.run_query(query, query_type)
        if self.cache is not None:
            self.cache.flush_window()
        if reset_statistics:
            self.statistics.reset()

    def flush_window(self) -> None:
        """Promote the admission window into the cache proper.

        No-op when caching is disabled.  This is the shard-level hook the
        sharded warm-up path calls uniformly across execution backends (a
        process shard proxy forwards it to its worker).
        """
        if self.cache is not None:
            self.cache.flush_window()

    # ------------------------------------------------------------------ #
    # snapshots
    # ------------------------------------------------------------------ #
    @cached_property
    def _dataset_digest(self) -> str:
        # computed on the first save or restore, never at build: hashing a
        # large dataset costs more than building the system over it
        from repro.cache.persistence import dataset_digest

        return dataset_digest(self.dataset)

    def save_snapshot(self, path) -> int:
        """Persist the cache to ``path``; returns entries written (0 = no cache).

        The file carries the dataset's digest: its answers hold for this
        dataset only.
        """
        from repro.cache.persistence import save_cache

        if self.cache is None:
            return 0
        return save_cache(self.cache, path, digest=self._dataset_digest)

    def restore_snapshot(self, path) -> int:
        """Warm the cache from ``path``; returns entries restored.

        Returns 0 (cold start) when the cache is disabled, the file is
        missing, the file is a *sharded* snapshot manifest — those only
        make sense for the shard layout they were written under — or
        :func:`~repro.cache.persistence.cold_start_reason` gives a reason
        (another dataset or another format version; logged as a warning).
        A corrupt or malformed snapshot raises
        :class:`~repro.errors.CacheError` (so a warm-cache file is never
        silently discarded and overwritten at the next shutdown).
        """
        from pathlib import Path

        from repro.cache.persistence import cold_start_reason, entries_from_payload, read_snapshot

        snapshot = Path(path)
        if self.cache is None or not snapshot.exists():
            return 0
        payload = read_snapshot(snapshot)
        if isinstance(payload, dict) and payload.get("sharded"):
            return 0
        reason = cold_start_reason(payload, self._dataset_digest)
        if reason is not None:
            logger.warning("snapshot %s %s: starting cold", snapshot, reason)
            return 0
        return self.cache.warm(entries_from_payload(payload))

    # ------------------------------------------------------------------ #
    # reporting
    # ------------------------------------------------------------------ #
    def aggregate(self) -> AggregateStatistics:
        """Aggregate statistics over every query processed so far."""
        return self.statistics.aggregate()

    def stage_breakdown(self) -> list[dict[str, float]]:
        """Per-pipeline-stage latency summary over every query so far."""
        return self.statistics.stage_breakdown()

    def cache_memory_bytes(self) -> int:
        """Approximate memory used by the cache (0 when disabled)."""
        return self.cache.memory_bytes() if self.cache is not None else 0

    def index_memory_bytes(self) -> int:
        """Approximate memory used by Method M's filter index."""
        return self.method.index_memory_bytes()

    def memory_overhead_ratio(self) -> float:
        """Cache memory as a fraction of Method M's index memory."""
        index_bytes = self.index_memory_bytes()
        if index_bytes <= 0:
            return float("inf") if self.cache_memory_bytes() > 0 else 0.0
        return self.cache_memory_bytes() / index_bytes

    def describe(self) -> dict[str, object]:
        """Full description of the deployed system (for reports)."""
        description: dict[str, object] = {
            "config": self.config.to_dict(),
            "method": self.method.describe(),
            "dataset_size": len(self.dataset),
        }
        if self.cache is not None:
            description["cache"] = self.cache.describe()
        return description
