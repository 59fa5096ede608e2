"""Differential correctness harness for the sharded scatter-gather engine.

The invariant that makes distribution trustworthy: **every execution arm
returns exactly the same answer sets** for the same workload —

* ``direct``      — Method M alone, no cache (``cache_enabled=False``);
* ``cached``      — the single-system engine with the cache on;
* ``sharded(N)``  — the scatter-gather engine at N shards (full scatter);
* ``sharded(N)+short-circuit`` — the same engine with summary-driven shard
  pruning (``scatter_mode="short-circuit"``);
* ``sharded(N)+process`` — the same engine with every shard hosted in a
  spawned worker process (``shard_backend="process"``, v2 envelopes over
  loopback);
* ``served``      — queries replayed through the HTTP server.

The harness runs each arm on a *fresh* system over the same dataset and the
same seeded workload (queries are cloned per arm, so no arm can leak state
into another), and returns the per-query answer sets plus the hit/test
accounting.  On mismatch, :func:`diff_answers` produces a compact per-query
diff (first few offending positions, missing/unexpected graph ids) instead
of dumping two 200-element lists at the reader.  Short-circuit arms
additionally record every query's scatter plan and the router assignment,
so :func:`diff_short_circuit` can *blame the shard whose pruning was
unsound*: partitions are disjoint, hence each missing answer id maps to
exactly one owning shard, and if that shard was skipped the diff names the
shard and the (wrong) skip reason.

Hit/miss-count equivalence is asserted only where it is actually guaranteed:
``sharded(1)`` is the same engine as ``cached`` plus a trivial merge, and a
*sequential* served run (one client thread, batch size 1) executes the exact
same query stream in the exact same order.  At 2+ shards each shard's cache
admits and evicts independently — and under short-circuit scatter pruned
shards never even see the query — so only the answer sets, not the hit
trajectories, are invariant there.
"""

from __future__ import annotations

import itertools
import threading
from dataclasses import dataclass, field

from repro.api.remote import RemoteGraphService
from repro.cache.statistics import AggregateStatistics
from repro.graph.graph import Graph
from repro.index.base import graph_id_sort_key
from repro.query_model import Query
from repro.runtime.config import GCConfig
from repro.runtime.system import GraphCacheSystem
from repro.server import QueryServer
from repro.sharding import ShardedGraphCacheSystem
from repro.workload import Workload, replay_trace


@dataclass
class ArmResult:
    """One execution arm's observable outcome."""

    name: str
    #: Per-query answer sets, in workload order.
    answers: list[frozenset] = field(default_factory=list)
    #: Aggregate statistics (hits, tests) the arm's StatisticsManager saw.
    aggregate: AggregateStatistics = field(default_factory=AggregateStatistics)
    #: Per-query scatter plans (sharded arms only): targets/skipped/fanout.
    plans: list[dict] | None = None
    #: Graph id → owning shard (sharded arms only), for pruning blame.
    shard_of: dict | None = None
    #: Planner statistics snapshot (sharded arms only).
    scatter_stats: dict | None = None

    @property
    def mean_fanout(self) -> float:
        """Average shards scattered to per query (0.0 for unsharded arms)."""
        if not self.scatter_stats:
            return 0.0
        return self.scatter_stats["mean_fanout"]

    def hit_counts(self) -> dict[str, int]:
        """The hit/test accounting that deterministic arms must agree on."""
        return {
            "queries": self.aggregate.num_queries,
            "hits": self.aggregate.num_hits,
            "exact_hits": self.aggregate.num_exact_hits,
            "sub_hits": self.aggregate.num_sub_hits,
            "super_hits": self.aggregate.num_super_hits,
            "dataset_tests": self.aggregate.total_dataset_tests,
            "baseline_tests": self.aggregate.total_baseline_tests,
            "probe_tests": self.aggregate.total_probe_tests,
        }


def clone_queries(workload: Workload) -> list[Query]:
    """Fresh Query objects (copied graphs, new ids) so arms cannot interact."""
    return [
        Query(graph=query.graph.copy(), query_type=query.query_type)
        for query in workload
    ]


def run_on_threads(system, queries: list[Query], threads: int,
                   timeout: float = 120.0) -> list:
    """Answer ``queries`` from ``threads`` test-owned caller threads.

    The engine has no pool of its own: a query runs on the thread that
    submitted it, and the engine's locks are there for callers like these.
    The threads take positions off one shared counter and call
    ``system.run_query``.  Returns the reports in submission order.  A thread still alive after
    ``timeout`` seconds is a deadlock; the first failure is re-raised.
    """
    reports: list = [None] * len(queries)
    failures: list[BaseException] = []
    ticket = itertools.count()  # next() on it is atomic under the GIL

    def caller() -> None:
        while (position := next(ticket)) < len(queries):
            try:
                reports[position] = system.run_query(queries[position])
            except BaseException as exc:  # surfaced on the test's thread below
                failures.append(exc)

    pool = [threading.Thread(target=caller, name=f"test-caller-{n}", daemon=True)
            for n in range(threads)]
    for thread in pool:
        thread.start()
    for thread in pool:
        thread.join(timeout=timeout)
    stuck = [thread.name for thread in pool if thread.is_alive()]
    assert not stuck, f"deadlock: threads still running: {stuck}"
    if failures:
        raise failures[0]
    dropped = [position for position, report in enumerate(reports) if report is None]
    assert not dropped, f"dropped queries at positions {dropped[:10]}"
    return reports


def assert_booked_exactly_once(system, reports, queries):
    """The statistics saw every query once: none lost, none duplicated."""
    aggregate = system.aggregate()
    assert aggregate.num_queries == len(queries)
    assert aggregate.total_dataset_tests == sum(r.dataset_tests for r in reports)
    assert aggregate.total_probe_tests == sum(r.probe_tests for r in reports)
    assert aggregate.num_hits == sum(1 for r in reports if r.num_hits)
    assert aggregate.num_sub_hits == sum(len(r.sub_hit_entries) for r in reports)
    assert aggregate.num_super_hits == sum(len(r.super_hit_entries) for r in reports)
    assert aggregate.num_exact_hits == sum(r.exact_hit_entry is not None for r in reports)


def base_config(**overrides) -> GCConfig:
    """The harness's standard configuration; override per arm."""
    payload = GCConfig(cache_capacity=25, window_size=5).to_dict()
    payload.update(overrides)
    return GCConfig.from_dict(payload)


# ---------------------------------------------------------------------- #
# execution arms
# ---------------------------------------------------------------------- #
def run_direct(dataset: list[Graph], workload: Workload, **config_overrides) -> ArmResult:
    """Method M alone: filter + verify with the cache disabled."""
    config = base_config(cache_enabled=False, **config_overrides)
    with GraphCacheSystem(dataset, config) as system:
        reports = system.run_queries(clone_queries(workload))
        return ArmResult(
            name="direct",
            answers=[frozenset(report.answer) for report in reports],
            aggregate=system.aggregate(),
        )


def run_cached(dataset: list[Graph], workload: Workload, **config_overrides) -> ArmResult:
    """The unsharded single-system engine, cache on."""
    config = base_config(**config_overrides)
    with GraphCacheSystem(dataset, config) as system:
        reports = system.run_queries(clone_queries(workload))
        return ArmResult(
            name="cached",
            answers=[frozenset(report.answer) for report in reports],
            aggregate=system.aggregate(),
        )


def run_sharded(
    dataset: list[Graph],
    workload: Workload,
    num_shards: int,
    caller_threads: int | None = None,
    scatter_mode: str = "full",
    shard_backend: str = "thread",
    **config_overrides,
) -> ArmResult:
    """The scatter-gather engine at ``num_shards`` shards.

    ``caller_threads`` drives the system from that many test-owned threads
    (:func:`run_on_threads`; None = the deterministic sequential path).
    ``scatter_mode="short-circuit"`` enables summary-driven shard pruning;
    the arm then also records every query's scatter plan, the router
    assignment and the planner statistics, so a mismatch can be blamed on
    the shard whose pruning was unsound (:func:`diff_short_circuit`).
    ``shard_backend="process"`` hosts every shard in a spawned worker
    process behind the v2 envelope transport — the arm that proves breaking
    the GIL changes nothing observable.
    """
    config = base_config(num_shards=num_shards, scatter_mode=scatter_mode,
                         shard_backend=shard_backend, **config_overrides)
    with ShardedGraphCacheSystem(dataset, config) as system:
        queries = clone_queries(workload)
        if caller_threads is None:
            reports = system.run_queries(queries)
        else:
            reports = run_on_threads(system, queries, caller_threads)
        return ArmResult(
            name=f"sharded({num_shards})"
            + (f"+threads({caller_threads})" if caller_threads else "")
            + (f"+{scatter_mode}" if scatter_mode != "full" else "")
            + (f"+{shard_backend}" if shard_backend != "thread" else ""),
            answers=[frozenset(report.answer) for report in reports],
            aggregate=system.aggregate(),
            plans=[query.metadata.get("scatter", {}) for query in queries],
            shard_of=system.router.assignment(),
            scatter_stats=system.planner.stats.to_dict(),
        )


def run_served(
    dataset: list[Graph],
    workload: Workload,
    num_shards: int = 1,
    num_threads: int = 1,
    max_batch_size: int = 1,
    **config_overrides,
) -> ArmResult:
    """Replay the workload through the HTTP server path.

    The default (one client thread, batch size 1) is fully sequential, so
    hit counts are comparable with the in-process ``cached`` arm; larger
    values exercise batching/concurrency, where only answers are invariant.
    The client is a :class:`RemoteGraphService`, so every differential suite
    exercises the envelope protocol end to end.
    """
    config = base_config(num_shards=num_shards, **config_overrides)
    with QueryServer(
        dataset,
        config,
        max_batch_size=max_batch_size,
        max_queue_depth=max(256, 2 * len(workload)),
    ) as server:
        client = RemoteGraphService.for_server(server)
        result = replay_trace(client, workload, num_threads=num_threads)
        aggregate = server.system.aggregate()
    if result.served != len(workload):
        raise AssertionError(
            f"served arm dropped queries: {result.served}/{len(workload)} served, "
            f"{result.rejected} rejected, {result.errors} errors"
        )
    return ArmResult(
        name=f"served(shards={num_shards},threads={num_threads},batch={max_batch_size})",
        answers=[frozenset(answer) for answer in result.answers()],
        aggregate=aggregate,
    )


# ---------------------------------------------------------------------- #
# comparison / compact diff
# ---------------------------------------------------------------------- #
def diff_answers(
    reference: ArmResult, other: ArmResult, limit: int = 5
) -> str | None:
    """Compact human-readable diff of two arms' answer lists (None = equal)."""
    lines: list[str] = []
    if len(reference.answers) != len(other.answers):
        lines.append(
            f"length mismatch: {reference.name} has {len(reference.answers)} "
            f"answers, {other.name} has {len(other.answers)}"
        )
    mismatches = [
        position
        for position, (left, right) in enumerate(zip(reference.answers, other.answers))
        if left != right
    ]
    for position in mismatches[:limit]:
        left, right = reference.answers[position], other.answers[position]
        missing = sorted(left - right, key=graph_id_sort_key)
        unexpected = sorted(right - left, key=graph_id_sort_key)
        lines.append(
            f"query #{position}: missing from {other.name}: {missing or '-'} | "
            f"unexpected in {other.name}: {unexpected or '-'}"
        )
    if len(mismatches) > limit:
        lines.append(f"... and {len(mismatches) - limit} more mismatching queries")
    if not lines:
        return None
    header = (
        f"{other.name} diverges from {reference.name} "
        f"on {len(mismatches)} of {len(reference.answers)} queries:"
    )
    return "\n".join([header, *lines])


def diff_short_circuit(
    reference: ArmResult, short_circuit: ArmResult, limit: int = 5
) -> str | None:
    """Like :func:`diff_answers`, but *names the unsoundly-pruned shard*.

    ``reference`` is any arm with the full answer sets (direct, cached or
    full scatter); ``short_circuit`` must carry plans and the router
    assignment.  Because partitions are disjoint, every answer id missing
    from the short-circuit arm belongs to exactly one shard; if that shard
    was skipped by the query's plan, the diff reports the shard and the
    recorded (wrong) skip reason — the exact summary screen to debug.
    """
    base = diff_answers(reference, short_circuit, limit=limit)
    if base is None:
        return None
    if short_circuit.plans is None or short_circuit.shard_of is None:
        return base
    blames: list[str] = []
    mismatches = [
        position
        for position, (left, right) in enumerate(
            zip(reference.answers, short_circuit.answers))
        if left != right
    ]
    for position in mismatches[:limit]:
        plan = short_circuit.plans[position] if position < len(short_circuit.plans) else {}
        skipped = {int(shard): reason
                   for shard, reason in plan.get("skipped", {}).items()}
        lost_by_shard: dict[int, list] = {}
        for graph_id in reference.answers[position] - short_circuit.answers[position]:
            owner = short_circuit.shard_of.get(graph_id)
            if owner is not None:
                lost_by_shard.setdefault(owner, []).append(graph_id)
        for owner in sorted(lost_by_shard):
            ids = sorted(lost_by_shard[owner], key=graph_id_sort_key)
            if owner in skipped:
                blames.append(
                    f"query #{position}: shard {owner} was pruned "
                    f"(reason: {skipped[owner]!r}) but owns answers {ids} "
                    "— UNSOUND PRUNING"
                )
            else:
                blames.append(
                    f"query #{position}: shard {owner} was scattered to but "
                    f"dropped answers {ids} — merge/execution bug, not pruning"
                )
    if not blames:
        return base
    return "\n".join([base, "shard blame:", *blames])


def assert_answers_equal(reference: ArmResult, *others: ArmResult) -> None:
    """Assert byte-identical answer sets, failing with the compact diff.

    Arms that carry scatter plans fail with the shard-blaming variant of
    the diff, so an unsound pruning screen is named directly.
    """
    for other in others:
        if other.plans is not None:
            diff = diff_short_circuit(reference, other)
        else:
            diff = diff_answers(reference, other)
        assert diff is None, diff


def assert_hit_counts_equal(reference: ArmResult, *others: ArmResult) -> None:
    """Assert identical hit/test accounting (deterministic arms only)."""
    expected = reference.hit_counts()
    for other in others:
        got = other.hit_counts()
        assert got == expected, (
            f"hit/miss accounting diverges: {reference.name}={expected} "
            f"vs {other.name}={got}"
        )
