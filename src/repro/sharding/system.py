"""ShardedGraphCacheSystem: scatter-gather execution over dataset shards.

The dataset is partitioned by a :class:`~repro.sharding.router.ShardRouter`
into N disjoint partitions, each owned by an independent
:class:`~repro.runtime.system.GraphCacheSystem` — its own Method M filter
index, its own thread-safe cache and its own admission window.  Every query is *scattered* to all shards (each filters + verifies
only its own partition, consulting only its own cache) and the per-shard
reports are *gathered* into one merged :class:`QueryReport`:

* answer / candidate / guaranteed sets — unions (partitions are disjoint, so
  the union is exactly the unsharded result);
* test and probe counts, per-stage seconds — sums across shards;
* ``total_seconds`` — the critical path: the slowest shard plus the merge;
* merge overhead — accounted as its own ``"merge"`` pipeline stage, so
  ``stage_breakdown()`` and the ``/metrics`` endpoint expose it directly.

The merged stream feeds this system's own :class:`StatisticsManager`, which
also carries a reference to every per-shard manager so ``to_dict()`` reports
per-shard aggregation alongside the merged view.

The class mirrors the :class:`GraphCacheSystem` facade (``run_query``,
``run_queries``, ``run_batch``, ``warm_cache``, statistics and
memory accessors, snapshot save/restore), so the query server, the request
batcher and the workload runner accept it transparently.
"""

from __future__ import annotations

import json
import time
from collections.abc import Callable, Iterable
from concurrent.futures import ThreadPoolExecutor, wait
from pathlib import Path

from repro.cache.graph_cache import GraphCache
from repro.cache.persistence import read_snapshot, write_atomically
from repro.cache.statistics import AggregateStatistics, StatisticsManager
from repro.errors import ConfigurationError
from repro.features.paths import PathFeatureExtractor
from repro.graph.graph import Graph
from repro.methods.base import MethodM
from repro.obs.logs import replay_entries
from repro.obs.recorder import SpanScope
from repro.obs.trace import TRACE_KEY, context_from_carrier
from repro.query_model import Query, QueryType, as_query
from repro.runtime.config import GCConfig
from repro.runtime.report import QueryReport
from repro.runtime.system import GraphCacheSystem
from repro.sharding.planner import PLAN_STAGE, ScatterPlan, ScatterPlanner
from repro.sharding.router import ShardRouter
from repro.sharding.summary import ShardSummary

#: Stage name under which scatter-gather merge time is accounted.
MERGE_STAGE = "merge"

SNAPSHOT_MANIFEST_VERSION = 1


def shard_snapshot_path(path: str | Path, shard: int) -> Path:
    """The per-shard snapshot file derived from the base snapshot path."""
    base = Path(path)
    return base.with_name(f"{base.stem}-shard{shard}{base.suffix or '.json'}")


class ShardedGraphCacheSystem:
    """N independent GC shards behind one scatter-gather facade."""

    def __init__(
        self,
        dataset: Iterable[Graph],
        config: GCConfig | None = None,
        method_factory: Callable[[], MethodM] | None = None,
    ) -> None:
        self.config = config or GCConfig()
        self.config.validate()
        self.dataset = list(dataset)
        if not self.dataset:
            raise ConfigurationError("the dataset must contain at least one graph")
        if method_factory is not None and isinstance(method_factory, MethodM):
            raise ConfigurationError(
                "a sharded system needs a method *factory* (each shard builds its "
                "own Method M over its partition); pass a zero-argument callable"
            )
        self.router = ShardRouter(self.dataset, self.config.num_shards)
        shard_payload = self.config.to_dict()
        shard_payload["num_shards"] = 1  # each shard is itself unsharded
        shard_payload["shard_backend"] = "thread"  # workers host plain systems
        #: The worker supervisor when ``shard_backend == "process"`` — the
        #: shard list then holds :class:`ProcessShardClient` proxies, which
        #: implement the same surface this class scatters to.
        self._process_backend: "ProcessShardBackend | None" = None
        self.shards: list[GraphCacheSystem] = []
        if self.config.shard_backend == "process":
            from repro.sharding.process_backend import ProcessShardBackend

            backend = ProcessShardBackend(
                self.router.partitions(),
                GCConfig.from_dict(shard_payload),
                method_factory=method_factory,
            )
            self._process_backend = backend
            self.shards = list(backend.clients)  # type: ignore[arg-type]
        else:
            try:
                for partition in self.router.partitions():
                    method = method_factory() if method_factory is not None else None
                    self.shards.append(
                        GraphCacheSystem(partition, GCConfig.from_dict(shard_payload),
                                         method=method)
                    )
            except Exception:
                for shard in self.shards:
                    shard.close()
                raise
        #: Merged per-query statistics; per-shard managers ride along so
        #: ``to_dict()`` exposes per-shard aggregation keys.
        self.statistics = StatisticsManager()
        for index, shard in enumerate(self.shards):
            self.statistics.attach_shard(f"shard{index}", shard.statistics)
        #: Per-shard partition summaries, built once, + the scatter planner
        #: that consults them.  The summary feature family (vertex labels +
        #: single edges) is deliberately independent of Method M's own index,
        #: so every screen is sound for any method, including index-free
        #: direct SI.
        extractor = PathFeatureExtractor(max_length=1)
        self.planner = ScatterPlanner(
            [ShardSummary.build(index, partition, extractor)
             for index, partition in enumerate(self.router.partitions())],
            mode=self.config.scatter_mode,
            extractor=extractor,
        )
        #: Scatter pool: one slot per shard, so every shard of a query (or of
        #: a batch) executes concurrently with its siblings.
        self._pool = ThreadPoolExecutor(
            max_workers=self.num_shards, thread_name_prefix="gc-shard"
        )
        self._closed = False

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #
    @property
    def num_shards(self) -> int:
        return self.router.num_shards

    @property
    def cache(self) -> None:
        """No single cache exists; per-shard caches via :meth:`all_caches`."""
        return None

    @property
    def method(self) -> MethodM:
        """Shard 0's Method M (shards share the method type and options)."""
        return self.shards[0].method

    def all_caches(self) -> list[GraphCache]:
        """Every shard's cache (empty when caching is disabled)."""
        return [shard.cache for shard in self.shards if shard.cache is not None]

    def close(self) -> None:
        """Release every shard and the scatter pool."""
        if self._closed:
            return
        self._closed = True
        self._pool.shutdown(wait=True)
        for shard in self.shards:
            shard.close()
        if self._process_backend is not None:
            self._process_backend.close()

    def __enter__(self) -> "ShardedGraphCacheSystem":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------ #
    # scatter planning (shard summaries)
    # ------------------------------------------------------------------ #
    def plan_query(
        self, query: Query | Graph, query_type: QueryType | str = QueryType.SUBGRAPH
    ) -> ScatterPlan:
        """The scatter plan for one query under the configured mode."""
        return self.planner.plan(as_query(query, query_type))

    def scatter_metrics(self) -> dict:
        """Skip rates, fan-out and summary sizes (for ``/metrics``)."""
        return {
            "mode": self.planner.mode,
            "num_shards": self.num_shards,
            "stats": self.planner.stats.to_dict(),
            "summaries": [summary.to_dict() for summary in self.planner.summaries],
            # read by benchmarks/gcbench/sut.py::engine_counters
            "hedging": {"hedges_issued": 0},
        }

    # ------------------------------------------------------------------ #
    # query execution (scatter-gather)
    # ------------------------------------------------------------------ #
    def run_query(
        self, query: Query | Graph, query_type: QueryType | str = QueryType.SUBGRAPH
    ) -> QueryReport:
        """Scatter one query to every shard and merge the answers."""
        query = as_query(query, query_type)
        return self._scatter(
            [query],
            lambda shard, queries: [self.shards[shard].run_query(
                queries[0], query.query_type)],
        )[0]

    def run_queries(
        self,
        queries: Iterable[Query | Graph],
        query_type: QueryType | str = QueryType.SUBGRAPH,
    ) -> list[QueryReport]:
        """Process queries in order; each is scattered across all shards.

        Per-shard cache state evolves exactly as if that shard processed the
        stream sequentially on its own, so the merged answers are invariant
        across shard counts.
        """
        return [self.run_query(query, query_type) for query in queries]

    def run_batch(
        self,
        queries: Iterable[Query | Graph],
        query_type: QueryType | str = QueryType.SUBGRAPH,
    ) -> list[QueryReport]:
        """Scatter the whole batch — each shard gets its share at once — and merge.

        Every shard answers its share through its own ``run_batch`` (in order;
        a process shard loops over it on the scatter slot's keep-alive
        connection), all shards running concurrently on the scatter pool.
        Merged reports are returned in submission order.
        """
        query_list = [as_query(query, query_type) for query in queries]
        if not query_list:
            return []
        return self._scatter(
            query_list,
            lambda shard, queries: self.shards[shard].run_batch(queries, query_type),
        )

    def _scatter(self, query_list: list[Query], run_on_shard) -> list[QueryReport]:
        """Plan → submit → gather → merge, for one query or a whole batch.

        ``run_on_shard(shard, queries)`` executes a shard's share of the
        batch (on the scatter pool) and returns its reports in order.
        """
        plans = [self.plan_query(query) for query in query_list]
        scopes = []
        for query, plan in zip(query_list, plans):
            query.metadata["scatter"] = plan.to_dict()
            scopes.append(self._open_scatter(query))
        # group the batch per shard: each shard only ever sees the queries
        # planned onto it (under full scatter that is the whole batch)
        shard_positions: list[list[int]] = [[] for _ in range(self.num_shards)]
        for position, plan in enumerate(plans):
            for shard in plan.targets:
                shard_positions[shard].append(position)
        futures = {
            shard: self._pool.submit(
                run_on_shard, shard, [query_list[position] for position in positions])
            for shard, positions in enumerate(shard_positions)
            if positions
        }
        shard_reports = self._gather(futures, query_list, plans, scopes)
        offset_of = [
            {position: offset for offset, position in enumerate(positions)}
            for positions in shard_positions
        ]
        return [
            self._merge(
                query,
                [shard_reports[shard][offset_of[shard][position]]
                 for shard in plan.targets],
                plan=plan,
                scope=scopes[position],
            )
            for position, (query, plan) in enumerate(zip(query_list, plans))
        ]

    def warm_cache(
        self,
        queries: Iterable[Query | Graph],
        query_type: QueryType | str = QueryType.SUBGRAPH,
        reset_statistics: bool = True,
    ) -> None:
        """Warm every shard's cache with the same query stream.

        The warm-up runs through the normal scatter-gather path, so the
        merged and per-shard statistics stay consistent: with
        ``reset_statistics=False`` both views carry the warm-up queries,
        with the default both are cleared.
        """
        self.run_queries(list(queries), query_type)
        for shard in self.shards:
            # uniform across backends: an in-process shard flushes its own
            # cache window, a process proxy forwards to its worker
            shard.flush_window()
        if reset_statistics:
            self.statistics.reset()
            for shard in self.shards:
                shard.statistics.reset()
                reset_remote = getattr(shard, "reset_remote_statistics", None)
                if reset_remote is not None:
                    reset_remote()

    # ------------------------------------------------------------------ #
    # distributed tracing of the scatter-gather hop
    # ------------------------------------------------------------------ #
    @staticmethod
    def _open_scatter(query: Query) -> SpanScope | None:
        """Open the per-query ``scatter`` scope and reparent the carrier.

        Every shard execution (thread pipeline or process worker) parents its
        ``pipeline`` span on whatever span id rides in the metadata carrier —
        so before scattering, the carrier is re-pointed at the scatter span.
        :meth:`_close_scatter` restores it.
        """
        context = context_from_carrier(query.metadata)
        if context is None:
            return None
        scope = SpanScope("scatter", context)
        query.metadata[TRACE_KEY] = scope.context.to_carrier()
        return scope

    @staticmethod
    def _close_scatter(query: Query, scope: SpanScope, plan: ScatterPlan,
                       seconds: float | None = None, spans=(), **attributes) -> None:
        """Restore the query's carrier and record the scatter span."""
        query.metadata[TRACE_KEY] = scope.parent.to_carrier()
        scope.close({"targets": list(plan.targets), "skipped": list(plan.skipped),
                     **attributes}, seconds=seconds, spans=spans)

    def _gather(self, futures: dict, query_list: list[Query],
                plans: list[ScatterPlan], scopes: list) -> dict[int, list[QueryReport]]:
        """Every shard's reports, their spans stamped with the shard that ran them.

        When a shard fails, once every shard has stopped the open scatter
        scopes are closed with ``outcome="error"`` and the failure re-raised:
        the trace stays one tree, and the carrier is the caller's again.
        """
        try:
            shard_reports = {shard: future.result() for shard, future in futures.items()}
        except BaseException:
            wait(futures.values())
            for query, plan, scope in zip(query_list, plans, scopes):
                if scope is not None:
                    self._close_scatter(query, scope, plan, outcome="error")
            raise
        for shard, reports in shard_reports.items():
            for report in reports:
                for span in report.spans:
                    span.attributes["shard"] = shard
        return shard_reports

    # ------------------------------------------------------------------ #
    # gather / merge
    # ------------------------------------------------------------------ #
    def _merge(
        self,
        query: Query,
        shard_reports: list[QueryReport],
        plan: ScatterPlan,
        scope: SpanScope | None = None,
    ) -> QueryReport:
        """Merge per-shard reports into one deterministic report + record.

        An empty ``shard_reports`` is legal: the planner proved *no* shard
        can contribute, so the merged answer is empty without any scatter.
        """
        started = time.perf_counter()
        merged = QueryReport(query=query)
        stage_seconds: dict[str, float] = {}
        slowest = 0.0
        for report in shard_reports:  # shard order: deterministic
            if merged.exact_hit_entry is None:
                merged.exact_hit_entry = report.exact_hit_entry
            merged.sub_hit_entries.extend(report.sub_hit_entries)
            merged.super_hit_entries.extend(report.super_hit_entries)
            merged.method_candidates |= report.method_candidates
            merged.guaranteed_answers |= report.guaranteed_answers
            merged.guaranteed_non_answers |= report.guaranteed_non_answers
            merged.verified_candidates |= report.verified_candidates
            merged.verified_answers |= report.verified_answers
            merged.answer |= report.answer
            merged.cache_population += report.cache_population
            merged.dataset_tests += report.dataset_tests
            merged.probe_tests += report.probe_tests
            merged.filter_seconds += report.filter_seconds
            merged.probe_seconds += report.probe_seconds
            merged.verify_seconds += report.verify_seconds
            merged.baseline_tests += report.baseline_tests
            merged.baseline_seconds += report.baseline_seconds
            slowest = max(slowest, report.total_seconds)
            for stage, seconds in report.stage_seconds.items():
                stage_seconds[stage] = stage_seconds.get(stage, 0.0) + seconds
        merge_seconds = time.perf_counter() - started
        plan_seconds = 0.0
        if self.planner.mode != "full":
            # planning is real per-query work in short-circuit mode: book it
            # as its own stage next to the merge, so skip decisions show up
            # in stage_breakdown() and /metrics like any other stage
            plan_seconds = plan.plan_seconds
            stage_seconds[PLAN_STAGE] = plan_seconds
        stage_seconds[MERGE_STAGE] = merge_seconds
        merged.stage_seconds = stage_seconds
        #: Critical path: shards ran concurrently, so the merged wall time is
        #: the plan, the slowest scattered shard, and the gather/merge.
        merged.total_seconds = plan_seconds + slowest + merge_seconds
        if scope is not None:
            # shard-side pipeline spans are already in the recorder (thread
            # shards record directly; process proxies re-record on gather):
            # plan and merge flank the scatter span under its parent
            spans = [scope.span(MERGE_STAGE, slowest, merge_seconds, sibling=True)]
            if plan_seconds > 0.0:
                spans.insert(0, scope.span(PLAN_STAGE, -plan_seconds, plan_seconds,
                                           sibling=True))
            self._close_scatter(query, scope, plan, seconds=slowest, spans=spans)
        self.statistics.record(merged)
        return merged

    # ------------------------------------------------------------------ #
    # snapshots (fan out to per-shard files + a manifest)
    # ------------------------------------------------------------------ #
    def save_snapshot(self, path: str | Path) -> int:
        """Persist every shard's cache; returns total entries written.

        ``path`` receives a manifest (shard count, file names); each shard's
        entries land in ``<stem>-shard<i><suffix>`` next to it.  A restore
        with a different shard count is refused (cold start), and each shard
        file carries its partition's dataset digest, so a file written for
        another partition restores cold too.  Every file is replaced
        atomically, the shard files first and the manifest last.
        """
        base = Path(path)
        total = 0
        shard_files: list[str] = []
        # gate on configuration, not `shard.cache`: a process shard's cache
        # lives in its worker (coordinator-side cache is None) but snapshots
        # fine — the worker writes the shard file itself
        if self.config.cache_enabled:
            for index, shard in enumerate(self.shards):
                shard_path = shard_snapshot_path(base, index)
                total += shard.save_snapshot(shard_path)
                shard_files.append(shard_path.name)
        manifest = {
            "format_version": SNAPSHOT_MANIFEST_VERSION,
            "sharded": True,
            "num_shards": self.num_shards,
            "shard_files": shard_files,
            "entries": total,
        }
        write_atomically(base, json.dumps(manifest, indent=2))
        return total

    def restore_snapshot(self, path: str | Path) -> int:
        """Warm every shard from a sharded snapshot; returns entries restored.

        Returns 0 (cold start) when the manifest is missing, is not a
        sharded manifest (e.g. a single-system snapshot), or was written
        under a different shard count.  A corrupt manifest
        or shard file raises — warm-cache data is never silently dropped.
        """
        base = Path(path)
        if not base.exists():
            return 0
        manifest = read_snapshot(base)
        if not isinstance(manifest, dict) or not manifest.get("sharded"):
            return 0
        if manifest.get("num_shards") != self.num_shards:
            return 0
        return sum(
            shard.restore_snapshot(shard_snapshot_path(base, index))
            for index, shard in enumerate(self.shards)
        )

    # ------------------------------------------------------------------ #
    # reporting
    # ------------------------------------------------------------------ #
    def aggregate(self) -> AggregateStatistics:
        """Merged aggregate statistics over every query processed so far."""
        return self.statistics.aggregate()

    def stage_breakdown(self) -> list[dict[str, float]]:
        """Merged per-stage latency summary (includes the ``merge`` stage)."""
        return self.statistics.stage_breakdown()

    def cache_memory_bytes(self) -> int:
        """Total cache memory across shards."""
        return sum(shard.cache_memory_bytes() for shard in self.shards)

    def index_memory_bytes(self) -> int:
        """Total Method M filter-index memory across shards."""
        return sum(shard.index_memory_bytes() for shard in self.shards)

    def memory_overhead_ratio(self) -> float:
        """Total cache memory as a fraction of total index memory."""
        index_bytes = self.index_memory_bytes()
        if index_bytes <= 0:
            return float("inf") if self.cache_memory_bytes() > 0 else 0.0
        return self.cache_memory_bytes() / index_bytes

    def describe_shards(self) -> list[dict[str, object]]:
        """One summary row per shard (dataset slice, cache, memory, scatter).

        A process shard's memory and cache state live in its worker: one
        ``/describe`` round trip per shard fills all three.
        """
        stats = self.planner.stats.to_dict()
        rows: list[dict[str, object]] = []
        for index, shard in enumerate(self.shards):
            remote_describe = getattr(shard, "remote_describe", None)
            if remote_describe is None:
                state = {
                    "cache_memory_bytes": shard.cache_memory_bytes(),
                    "index_memory_bytes": shard.index_memory_bytes(),
                    "cache": shard.cache.describe() if shard.cache is not None else None,
                }
            else:
                try:
                    state = remote_describe()
                except Exception:
                    state = {}  # metrics stay up while a worker respawns
            row: dict[str, object] = {
                "shard": index,
                "dataset_size": len(shard.dataset),
                "cache_memory_bytes": int(state.get("cache_memory_bytes", 0)),
                "index_memory_bytes": int(state.get("index_memory_bytes", 0)),
                "scattered": stats["per_shard_scattered"][index],
                "skipped": stats["per_shard_skipped"][index],
            }
            if state.get("cache") is not None:
                row["cache"] = state["cache"]
            rows.append(row)
        return rows

    def worker_liveness(self) -> list[dict]:
        """One liveness row per shard (process-backend rows carry pid/respawns).

        Thread shards live in this process, so they are alive iff we are;
        process rows come from the backend supervisor and can report a dead
        worker before the next query trips over it — the ``/health``
        degradation signal load balancers watch.
        """
        if self._process_backend is not None:
            return self._process_backend.liveness()
        return [
            {"shard": index, "backend": "thread", "alive": True, "respawns": 0}
            for index in range(self.num_shards)
        ]

    def worker_registry_snapshots(self) -> list[tuple[dict, dict]]:
        """``({"shard": i}, registry snapshot)`` per process worker.

        The coordinator's ``/metrics?format=text`` fans these into its own
        exposition as distinct labelled series.  A worker that cannot answer
        (mid-respawn) is skipped — a scrape never fails on a dying shard.
        """
        snapshots: list[tuple[dict, dict]] = []
        for index, shard in enumerate(self.shards):
            fetch = getattr(shard, "registry_snapshot", None)
            if fetch is None:
                continue
            try:
                snapshot = fetch()
            except Exception:
                continue
            if isinstance(snapshot, dict):
                snapshots.append(({"shard": str(index)}, snapshot))
        return snapshots

    def forward_worker_logs(self) -> int:
        """Drain buffered worker warnings/errors into this process's log.

        Returns the number of entries forwarded; thread shards (which log
        here directly) contribute nothing.
        """
        forwarded = 0
        for index, shard in enumerate(self.shards):
            drain = getattr(shard, "drain_logs", None)
            if drain is None:
                continue
            try:
                payload = drain()
            except Exception:
                continue
            if not isinstance(payload, dict):
                continue
            entries = payload.get("entries", []) or []
            replay_entries(entries, f"shard{index}",
                           dropped=int(payload.get("dropped", 0) or 0))
            forwarded += len(entries)
        return forwarded

    def describe(self) -> dict[str, object]:
        """Full description of the sharded deployment (for reports)."""
        return {
            "config": self.config.to_dict(),
            "method": self.method.describe(),
            "dataset_size": len(self.dataset),
            "router": self.router.describe(),
            "scatter": self.scatter_metrics(),
            "shards": self.describe_shards(),
        }


def make_system(
    dataset: Iterable[Graph],
    config: GCConfig | None = None,
    method: MethodM | Callable[[], MethodM] | None = None,
) -> GraphCacheSystem | ShardedGraphCacheSystem:
    """Build the system a config asks for: unsharded or scatter-gather.

    ``method`` may be a :class:`MethodM` instance (unsharded only) or a
    zero-argument factory.  With ``config.num_shards > 1`` a factory is
    required — each shard builds its own Method M over its partition.
    """
    config = config or GCConfig()
    config.validate()
    if config.num_shards <= 1 and config.shard_backend == "thread":
        if method is not None and not isinstance(method, MethodM):
            method = method()
        return GraphCacheSystem(dataset, config, method=method)
    if isinstance(method, MethodM):
        raise ConfigurationError(
            "a sharded deployment requires a method factory (zero-argument "
            "callable), not a built MethodM instance: every shard indexes its "
            "own partition"
        )
    return ShardedGraphCacheSystem(dataset, config, method_factory=method)
