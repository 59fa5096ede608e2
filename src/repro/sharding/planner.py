"""ScatterPlanner: decide, per query, which shards must be scattered to.

PR 3's scatter-gather engine sends every query to every shard, so adding
shards buys parallelism but never reduces total filter/verify work.  The
planner closes that gap: it consults each shard's :class:`ShardSummary`
(union/common feature vectors, label set, size envelope) and *proves* which
shards cannot contribute answers; only the survivors are scattered to.

Safety invariants, locked by the differential + property suites:

* every skip is backed by a sound summary screen — a skipped shard
  contributes **zero** answers under full scatter;
* ``full`` mode never consults summaries at all (the PR 3 behaviour).

Partitions are fixed at construction, so the summaries built then are
trusted as they stand: planning costs only the screens.

Planning time is booked as its own ``plan`` pipeline stage on merged
reports (:data:`PLAN_STAGE`), next to the existing ``merge`` stage.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field

from repro.errors import ConfigurationError
from repro.features.base import FeatureExtractor
from repro.query_model import Query
from repro.sharding.summary import ShardSummary

#: Stage name under which per-query scatter planning time is accounted.
PLAN_STAGE = "plan"


@dataclass
class ScatterPlan:
    """The planner's verdict for one query."""

    query_id: int
    #: Shard indices the query must be scattered to, ascending.
    targets: list[int] = field(default_factory=list)
    #: Pruned shards → the sound reason each cannot contribute.
    skipped: dict[int, str] = field(default_factory=dict)
    plan_seconds: float = 0.0

    @property
    def fanout(self) -> int:
        """Number of shards actually scattered to."""
        return len(self.targets)

    def to_dict(self) -> dict:
        """JSON-safe view (stamped into ``query.metadata`` by the system)."""
        return {
            "targets": list(self.targets),
            "skipped": dict(self.skipped),
            "fanout": self.fanout,
        }


class ScatterStats:
    """Thread-safe counters over every plan the planner produced."""

    def __init__(self, num_shards: int) -> None:
        self._lock = threading.Lock()
        self.num_shards = num_shards
        self.queries = 0
        self.scattered_total = 0
        self.skipped_total = 0
        self.zero_target_queries = 0
        self.skip_reasons: dict[str, int] = {}
        self.per_shard_scattered = [0] * num_shards
        self.per_shard_skipped = [0] * num_shards

    def observe(self, plan: ScatterPlan) -> None:
        with self._lock:
            self.queries += 1
            self.scattered_total += len(plan.targets)
            self.skipped_total += len(plan.skipped)
            if not plan.targets:
                self.zero_target_queries += 1
            for reason in plan.skipped.values():
                self.skip_reasons[reason] = self.skip_reasons.get(reason, 0) + 1
            for shard in plan.targets:
                self.per_shard_scattered[shard] += 1
            for shard in plan.skipped:
                self.per_shard_skipped[shard] += 1

    @property
    def mean_fanout(self) -> float:
        """Average number of shards scattered to per planned query."""
        return self.scattered_total / self.queries if self.queries else 0.0

    @property
    def skip_rate(self) -> float:
        """Fraction of (query, shard) pairs the planner proved skippable."""
        pairs = self.queries * self.num_shards
        return self.skipped_total / pairs if pairs else 0.0

    def to_dict(self) -> dict:
        with self._lock:
            return {
                "queries": self.queries,
                "mean_fanout": round(self.mean_fanout, 4),
                "skip_rate": round(self.skip_rate, 4),
                "scattered_total": self.scattered_total,
                "skipped_total": self.skipped_total,
                "zero_target_queries": self.zero_target_queries,
                "skip_reasons": dict(self.skip_reasons),
                "per_shard_scattered": list(self.per_shard_scattered),
                "per_shard_skipped": list(self.per_shard_skipped),
            }

    def metrics_samples(self):
        """These counters as registry :class:`~repro.obs.metrics.Sample`\\ s.

        The unified telemetry registry scrapes this at ``/metrics`` time, so
        the scatter planner shows up in the Prometheus text exposition with
        the same numbers the JSON ``scatter`` section reports.
        """
        from repro.obs.metrics import COUNTER, GAUGE, Sample

        stats = self.to_dict()
        yield Sample("gc_scatter_queries_total", COUNTER, float(stats["queries"]),
                     help="Queries planned by the scatter planner")
        yield Sample("gc_scatter_mean_fanout", GAUGE, float(stats["mean_fanout"]),
                     help="Mean shards scattered to per query")
        yield Sample("gc_scatter_skip_rate", GAUGE, float(stats["skip_rate"]),
                     help="Fraction of shard sub-queries pruned by summaries")
        for shard, scattered in enumerate(stats["per_shard_scattered"]):
            yield Sample("gc_scatter_shard_scattered_total", COUNTER,
                         float(scattered),
                         help="Sub-queries scattered to each shard",
                         labels={"shard": str(shard)})
        for shard, skipped in enumerate(stats["per_shard_skipped"]):
            yield Sample("gc_scatter_shard_skipped_total", COUNTER,
                         float(skipped),
                         help="Sub-queries pruned away from each shard",
                         labels={"shard": str(shard)})


class ScatterPlanner:
    """Summary-driven scatter planning over a fixed set of shards."""

    def __init__(
        self,
        summaries: list[ShardSummary],
        mode: str,
        extractor: FeatureExtractor,
    ) -> None:
        if not summaries:
            raise ConfigurationError("the planner needs at least one shard summary")
        self.mode = mode
        self.summaries = list(summaries)
        #: The feature family queries are screened with; must be the family
        #: the summaries were built with (soundness depends on it).
        self.extractor = extractor
        self.stats = ScatterStats(len(summaries))

    @property
    def num_shards(self) -> int:
        return len(self.summaries)

    def plan(self, query: Query) -> ScatterPlan:
        """Plan one query and count the plan in :attr:`stats`."""
        started = time.perf_counter()
        plan = ScatterPlan(query_id=query.query_id)
        if self.mode == "full":
            plan.targets = list(range(self.num_shards))
        else:
            features = self.extractor.extract_pattern(query.graph)
            for summary in self.summaries:
                reason = summary.prune_reason(query, features)
                if reason is not None:
                    plan.skipped[summary.shard] = reason
                    continue
                plan.targets.append(summary.shard)
        plan.plan_seconds = time.perf_counter() - started
        self.stats.observe(plan)
        return plan
