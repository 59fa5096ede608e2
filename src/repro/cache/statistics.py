"""Statistics Manager / Statistics Monitor: global metrics as running sums.

Everything the Demonstrator reports — numbers of sub-iso tests, query times,
hit counts, speedups, where time goes — is accumulated here.  Each processed
query's report is folded into fixed-size sums the moment it is recorded, so
the manager's memory and the cost of every read stay flat however many
queries a server or shard worker has answered.

Speedup follows the paper's definition: *the ratio of the average performance
(query time or number of sub-iso tests) of the base Method M over the average
performance of GC deployed over Method M*; values above 1 are improvements.
The test speedup is counted: Method M's ``|C_M|`` tests over the dataset
tests GC ran.  The time speedup is an estimate: Method M is not run a second
time, so its seconds are each query's ``baseline_seconds`` (filter seconds
plus ``|C_M|`` × the running average test cost).
"""

from __future__ import annotations

import math
import threading
from dataclasses import asdict, dataclass, replace

from repro.query_model import QueryType


def json_safe(value):
    """Recursively replace values JSON cannot carry (inf/nan, enums).

    ``float("inf")`` (a legal speedup when the cache eliminates every
    dataset test) and ``QueryType`` members can both appear in payloads
    headed for the wire; JSON has neither, so infinities/NaNs become ``None`` and
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
class AggregateStatistics:
    """Aggregated view over many processed queries."""

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
    #: An estimate: Method M's seconds are each report's ``baseline_seconds``.
    time_speedup: float = 1.0


class StatisticsManager:
    """Folds query reports into running sums and derives aggregates from them.

    Thread-safe: concurrent queries may :meth:`record` simultaneously.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._sums = AggregateStatistics()
        #: Stage name → [total seconds, queries that ran it], first-seen order.
        self._stages: dict[str, list] = {}
        #: Per-shard managers attached by a sharded system (name → manager);
        #: insertion-ordered, so snapshots list shards deterministically.
        self._shards: dict[str, "StatisticsManager"] = {}

    # ------------------------------------------------------------------ #
    # shard attachment (sharded scatter-gather systems)
    # ------------------------------------------------------------------ #
    def attach_shard(self, name: str, manager: "StatisticsManager") -> None:
        """Attach a per-shard manager so snapshots report per-shard keys.

        The sharded system records *merged* reports here and attaches each
        shard's own manager; :meth:`to_dict` then carries a ``shards``
        section with every shard's aggregate and stage breakdown.
        """
        if manager is self:
            raise ValueError("a statistics manager cannot be its own shard")
        self._shards[name] = manager

    def record(self, report) -> None:
        """Fold one processed query's report into the running sums.

        ``report`` is a :class:`~repro.runtime.report.QueryReport`; only its
        hit entries, test counts, seconds and ``stage_seconds`` are read.
        """
        sub_hits = len(report.sub_hit_entries)
        super_hits = len(report.super_hit_entries)
        exact_hit = report.exact_hit_entry is not None
        with self._lock:
            sums = self._sums
            sums.num_queries += 1
            if exact_hit or sub_hits or super_hits:
                sums.num_hits += 1
            if exact_hit:
                sums.num_exact_hits += 1
            sums.num_sub_hits += sub_hits
            sums.num_super_hits += super_hits
            sums.total_dataset_tests += report.dataset_tests
            sums.total_baseline_tests += report.baseline_tests
            sums.total_probe_tests += report.probe_tests
            sums.total_seconds += report.total_seconds
            sums.total_baseline_seconds += report.baseline_seconds
            for stage, seconds in report.stage_seconds.items():
                row = self._stages.setdefault(stage, [0.0, 0])
                row[0] += seconds
                row[1] += 1

    def reset(self) -> None:
        """Zero every sum (e.g. between benchmark phases)."""
        with self._lock:
            self._sums = AggregateStatistics()
            self._stages = {}

    # ------------------------------------------------------------------ #
    # aggregates
    # ------------------------------------------------------------------ #
    def aggregate(self) -> AggregateStatistics:
        """The aggregate statistics over every recorded query."""
        with self._lock:
            aggregate = replace(self._sums)
        if aggregate.num_queries == 0:
            return aggregate
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
        with self._lock:
            stages = [(stage, total, count) for stage, (total, count) in self._stages.items()]
        grand_total = sum(total for _, total, _ in stages)
        return [
            {
                "stage": stage,
                "total_seconds": total,
                "mean_seconds": total / count,
                "share": (total / grand_total) if grand_total > 0 else 0.0,
            }
            for stage, total, count in stages
        ]

    def to_dict(self) -> dict:
        """JSON-safe snapshot of everything the manager knows.

        This is the payload the query server's ``/metrics`` endpoint
        serialises: the query count, the aggregate view and the per-stage
        latency breakdown.  All values survive ``json.dumps`` unchanged:
        enums are collapsed to their string values and infinite speedups
        become ``None``.

        When per-shard managers are attached (:meth:`attach_shard`), the
        snapshot additionally carries ``num_shards`` and a ``shards`` mapping
        of each shard's own snapshot, so one ``/metrics`` read shows both the
        merged view and how work and hits distribute across shards.
        """
        aggregate = self.aggregate()
        snapshot: dict = {
            "num_queries": aggregate.num_queries,
            "aggregate": json_safe(asdict(aggregate)),
            "stage_breakdown": json_safe(self.stage_breakdown()),
        }
        if self._shards:
            snapshot["num_shards"] = len(self._shards)
            snapshot["shards"] = {
                name: manager.to_dict() for name, manager in self._shards.items()
            }
        return snapshot
