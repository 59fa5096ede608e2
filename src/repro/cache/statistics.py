"""Statistics Manager / Statistics Monitor: per-query and global metrics.

Everything the Demonstrator reports — numbers of sub-iso tests, query times,
hit counts, speedups — is accumulated here.  One :class:`QueryRecord` is
appended per processed query; aggregate views are derived on demand.

Speedup follows the paper's definition: *the ratio of the average performance
(query time or number of sub-iso tests) of the base Method M over the average
performance of GC deployed over Method M*; values above 1 are improvements.
"""

from __future__ import annotations

import math
import threading
from dataclasses import asdict, dataclass, field

from repro.query_model import QueryType


def json_safe(value):
    """Recursively replace values JSON cannot carry (inf/nan, enums).

    ``float("inf")`` (a legal speedup when the cache eliminates every
    dataset test) and ``QueryType`` members both appear in statistics
    snapshots; JSON has neither, so infinities/NaNs become ``None`` and
    enums collapse to their ``value``.
    """
    if isinstance(value, QueryType):
        return value.value
    if isinstance(value, float) and not math.isfinite(value):
        return None
    if isinstance(value, dict):
        return {key: json_safe(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [json_safe(item) for item in value]
    return value


@dataclass
class QueryRecord:
    """Metrics for one processed query."""

    query_id: int
    query_type: QueryType
    num_vertices: int = 0
    num_edges: int = 0
    # cache interaction
    exact_hit: bool = False
    sub_hits: int = 0
    super_hits: int = 0
    #: Cache population observed just before this query ran (hit-% denominator
    #: — recorded per query so concurrent completion order cannot misalign it).
    cache_population: int = 0
    # candidate set sizes (the Query Journey quantities)
    method_candidates: int = 0      # |C_M|
    guaranteed_answers: int = 0     # |S|
    guaranteed_non_answers: int = 0  # |S'|
    verified_candidates: int = 0    # |C|
    answer_size: int = 0            # |A|
    # cost accounting
    dataset_tests: int = 0          # sub-iso tests actually run against data graphs
    probe_tests: int = 0            # sub-iso tests against cached queries (GC overhead)
    filter_seconds: float = 0.0
    probe_seconds: float = 0.0
    verify_seconds: float = 0.0
    total_seconds: float = 0.0
    # what Method M alone would have done (for speedup accounting)
    baseline_tests: int = 0         # == |C_M|
    baseline_seconds: float | None = None
    #: Wall-clock seconds per pipeline stage (filter/probe/prune/verify/...).
    stage_seconds: dict[str, float] = field(default_factory=dict)

    @classmethod
    def from_report(cls, report) -> "QueryRecord":
        """The record for one :class:`~repro.runtime.report.QueryReport`.

        Shared by the scatter-gather merge and the process shard proxies, so
        every execution backend books identical per-query accounting.
        """
        query = report.query
        return cls(
            query_id=query.query_id,
            query_type=query.query_type,
            num_vertices=query.num_vertices,
            num_edges=query.num_edges,
            exact_hit=report.exact_hit_entry is not None,
            sub_hits=len(report.sub_hit_entries),
            super_hits=len(report.super_hit_entries),
            cache_population=report.cache_population,
            method_candidates=len(report.method_candidates),
            guaranteed_answers=len(report.guaranteed_answers),
            guaranteed_non_answers=len(report.guaranteed_non_answers),
            verified_candidates=len(report.verified_candidates),
            answer_size=len(report.answer),
            dataset_tests=report.dataset_tests,
            probe_tests=report.probe_tests,
            filter_seconds=report.filter_seconds,
            probe_seconds=report.probe_seconds,
            verify_seconds=report.verify_seconds,
            total_seconds=report.total_seconds,
            baseline_tests=report.baseline_tests,
            baseline_seconds=report.baseline_seconds,
            stage_seconds=dict(report.stage_seconds),
        )

    @property
    def tests_saved(self) -> int:
        """Dataset sub-iso tests avoided for this query."""
        return max(0, self.baseline_tests - self.dataset_tests)

    @property
    def any_hit(self) -> bool:
        """True when the cache contributed anything to this query."""
        return self.exact_hit or self.sub_hits > 0 or self.super_hits > 0

    def to_dict(self) -> dict:
        """JSON-safe snapshot of this record (enum → value, inf → None)."""
        return json_safe(asdict(self))


@dataclass
class AggregateStatistics:
    """Aggregated view over many query records."""

    num_queries: int = 0
    num_hits: int = 0
    num_exact_hits: int = 0
    num_sub_hits: int = 0
    num_super_hits: int = 0
    total_dataset_tests: int = 0
    total_baseline_tests: int = 0
    total_probe_tests: int = 0
    total_seconds: float = 0.0
    total_baseline_seconds: float = 0.0
    hit_ratio: float = 0.0
    test_speedup: float = 1.0
    time_speedup: float = 1.0


class StatisticsManager:
    """Accumulates query records and derives aggregates.

    Thread-safe: concurrent queries may :meth:`record` simultaneously.
    """

    def __init__(self) -> None:
        self._records: list[QueryRecord] = []
        self._lock = threading.Lock()
        #: Per-shard managers attached by a sharded system (name → manager);
        #: insertion-ordered, so snapshots list shards deterministically.
        self._shards: dict[str, "StatisticsManager"] = {}

    # ------------------------------------------------------------------ #
    # shard attachment (sharded scatter-gather systems)
    # ------------------------------------------------------------------ #
    def attach_shard(self, name: str, manager: "StatisticsManager") -> None:
        """Attach a per-shard manager so snapshots report per-shard keys.

        The sharded system records *merged* records here and attaches each
        shard's own manager; :meth:`to_dict` then carries a ``shards``
        section with every shard's aggregate and stage breakdown.
        """
        if manager is self:
            raise ValueError("a statistics manager cannot be its own shard")
        self._shards[name] = manager

    def shard_names(self) -> list[str]:
        """Names of the attached per-shard managers, in attachment order."""
        return list(self._shards)

    def record(self, record: QueryRecord) -> None:
        """Append one query record."""
        with self._lock:
            self._records.append(record)

    def records(self) -> list[QueryRecord]:
        """All records in processing order."""
        with self._lock:
            return list(self._records)

    def __len__(self) -> int:
        return len(self._records)

    def __bool__(self) -> bool:
        """A manager is always truthy, even while it holds no records.

        Callers can therefore write ``statistics or StatisticsManager()``
        without accidentally discarding an empty (but shared) manager.
        """
        return True

    def reset(self) -> None:
        """Drop every record (e.g. between benchmark phases)."""
        with self._lock:
            self._records.clear()

    # ------------------------------------------------------------------ #
    # aggregates
    # ------------------------------------------------------------------ #
    def aggregate(self) -> AggregateStatistics:
        """Compute the aggregate statistics over every recorded query."""
        records = self.records()
        aggregate = AggregateStatistics(num_queries=len(records))
        if not records:
            return aggregate
        for record in records:
            if record.any_hit:
                aggregate.num_hits += 1
            if record.exact_hit:
                aggregate.num_exact_hits += 1
            aggregate.num_sub_hits += record.sub_hits
            aggregate.num_super_hits += record.super_hits
            aggregate.total_dataset_tests += record.dataset_tests
            aggregate.total_baseline_tests += record.baseline_tests
            aggregate.total_probe_tests += record.probe_tests
            aggregate.total_seconds += record.total_seconds
            if record.baseline_seconds is not None:
                aggregate.total_baseline_seconds += record.baseline_seconds
        aggregate.hit_ratio = aggregate.num_hits / aggregate.num_queries
        gc_tests = aggregate.total_dataset_tests
        aggregate.test_speedup = (
            aggregate.total_baseline_tests / gc_tests if gc_tests > 0 else float("inf")
        )
        if aggregate.total_baseline_seconds > 0 and aggregate.total_seconds > 0:
            aggregate.time_speedup = aggregate.total_baseline_seconds / aggregate.total_seconds
        return aggregate

    def stage_breakdown(self) -> list[dict[str, float]]:
        """Per-pipeline-stage latency summary over every recorded query.

        One row per stage (in first-seen order): total and mean seconds plus
        the stage's share of the summed stage time — the view the developer
        dashboard and the CLI print to show where query time goes.
        """
        records = self.records()
        totals: dict[str, float] = {}
        counts: dict[str, int] = {}
        for record in records:
            for stage, seconds in record.stage_seconds.items():
                totals[stage] = totals.get(stage, 0.0) + seconds
                counts[stage] = counts.get(stage, 0) + 1
        grand_total = sum(totals.values())
        return [
            {
                "stage": stage,
                "total_seconds": totals[stage],
                "mean_seconds": totals[stage] / counts[stage],
                "share": (totals[stage] / grand_total) if grand_total > 0 else 0.0,
            }
            for stage in totals
        ]

    def window_summaries(self, window_size: int) -> list[dict[str, float]]:
        """Aggregate the records in consecutive windows of ``window_size`` queries.

        This is the Statistics Manager view of how the cache's usefulness
        evolves over a workload (hit ratio and tests saved per window), used
        by the developer dashboard's timeline.
        """
        if window_size < 1:
            raise ValueError("window_size must be at least 1")
        records = self.records()
        summaries: list[dict[str, float]] = []
        for start in range(0, len(records), window_size):
            chunk = records[start:start + window_size]
            hits = sum(1 for record in chunk if record.any_hit)
            baseline = sum(record.baseline_tests for record in chunk)
            actual = sum(record.dataset_tests for record in chunk)
            summaries.append(
                {
                    "window": len(summaries),
                    "queries": len(chunk),
                    "hit_ratio": hits / len(chunk),
                    "baseline_tests": baseline,
                    "dataset_tests": actual,
                    "tests_saved": baseline - actual,
                    "test_speedup": (baseline / actual) if actual else float("inf"),
                }
            )
        return summaries

    def per_record_hit_percentages(self) -> list[float]:
        """Hit percentage per query, as the Workload Run dashboard shows it.

        The paper defines it as "the number of cache-hits over the number of
        cached graphs"; each record carries the cache population it observed
        (``cache_population``, defaulting to 1 to avoid division by zero), so
        one snapshot of the records drives both numerator and denominator and
        the result stays consistent under concurrent completion order.
        """
        percentages: list[float] = []
        for record in self.records():
            hits = record.sub_hits + record.super_hits + (1 if record.exact_hit else 0)
            percentages.append(100.0 * hits / max(1, record.cache_population))
        return percentages

    def to_dict(self, include_records: bool = False) -> dict:
        """JSON-safe snapshot of everything the manager knows.

        This is the payload the query server's ``/metrics`` endpoint
        serialises: the aggregate view, the per-stage latency breakdown and
        the record count — plus (optionally) every per-query record.  All
        values survive ``json.dumps`` unchanged: enums are collapsed to their
        string values and infinite speedups become ``None``.

        When per-shard managers are attached (:meth:`attach_shard`), the
        snapshot additionally carries ``num_shards`` and a ``shards`` mapping
        of each shard's own snapshot, so one ``/metrics`` read shows both the
        merged view and how work and hits distribute across shards.
        """
        snapshot: dict = {
            "num_queries": len(self._records),
            "aggregate": json_safe(asdict(self.aggregate())),
            "stage_breakdown": json_safe(self.stage_breakdown()),
        }
        if self._shards:
            snapshot["num_shards"] = len(self._shards)
            snapshot["shards"] = {
                name: manager.to_dict(include_records=include_records)
                for name, manager in self._shards.items()
            }
        if include_records:
            snapshot["records"] = [record.to_dict() for record in self.records()]
        return snapshot
