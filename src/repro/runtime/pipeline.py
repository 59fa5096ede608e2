"""The staged query pipeline: GC's per-query dataflow as explicit stages.

The paper's Fig. 3 pipeline is a fixed list of first-class
:class:`PipelineStage` objects operating on a shared
:class:`ExecutionContext`, so stages are individually instrumentable (the
pipeline records per-stage wall-clock latency into the query report).

The stage list is fixed, in this order:

``ProbeStage``    — the cache is probed for exact/sub/super hits;
``FilterStage``   — Method M's filter produces the candidate set ``C_M``,
                    unless an exact hit already answers the query;
``PruneStage``    — hits prune ``C_M`` into ``S``, ``S'`` and ``C`` (an
                    exact hit's answer is ``S``, with nothing to verify);
``VerifyStage``   — the surviving candidates ``C`` are sub-iso tested;
``AssembleStage`` — the answer ``A = R ∪ S`` is assembled and timed;
``AdmitStage``    — contributing entries are credited and the executed query
                    is offered for admission (an exact hit only advances the
                    window); when it fills the window, replacement runs here
                    too, on the query's own thread.
"""

from __future__ import annotations

import abc
import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.cache.graph_cache import CacheLookup
from repro.cache.pruner import PruningResult
from repro.cache.store import CACHE_FEATURE_LENGTH
from repro.features.paths import path_features
from repro.index.base import graph_id_sort_key
from repro.methods.base import VerificationOutcome
from repro.obs.recorder import SpanScope
from repro.obs.trace import TRACE_KEY, context_from_carrier
from repro.query_model import Query
from repro.runtime.report import QueryReport

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.runtime.executor import QueryExecutor


@dataclass
class ExecutionContext:
    """Everything one query accumulates while flowing through the pipeline."""

    query: Query
    executor: "QueryExecutor"
    report: QueryReport
    #: ``time.perf_counter()`` at pipeline entry (set by the pipeline).
    started_at: float = 0.0
    #: Cache logical clock observed by this query (0 when cache disabled).
    clock: int = 0
    lookup: CacheLookup | None = None
    pruning: PruningResult | None = None
    outcome: VerificationOutcome = field(default_factory=VerificationOutcome)

    @property
    def cache(self):
        """The cache the executing system runs with (may be ``None``)."""
        return self.executor.cache

    @property
    def method(self):
        """The Method M the executing system wraps."""
        return self.executor.method


class PipelineStage(abc.ABC):
    """One step of the query pipeline.

    Stages must be stateless with respect to individual queries (all
    per-query state lives in the :class:`ExecutionContext`) so one stage
    instance can serve many concurrent queries.
    """

    #: Stage name used for per-stage latency attribution.
    name: str = "stage"

    @abc.abstractmethod
    def run(self, ctx: ExecutionContext) -> None:
        """Advance the context through this stage."""


class ProbeStage(PipelineStage):
    """Probe the cache for exact, sub-case and super-case hits.

    The probe runs before the filter, so it enumerates the query's label
    paths at the longest length either asks for: a miss's filter then reads
    the remembered multiset instead of enumerating again.
    """

    name = "probe"

    def run(self, ctx: ExecutionContext) -> None:
        if ctx.cache is None:
            ctx.clock = 0
            return
        path_features(ctx.query.graph, max(CACHE_FEATURE_LENGTH, ctx.method.path_length))
        ctx.clock = ctx.cache.tick()
        lookup = ctx.cache.lookup(ctx.query)
        ctx.lookup = lookup
        ctx.report.cache_population = lookup.cache_population
        ctx.report.probe_tests = lookup.probe_tests
        ctx.report.probe_seconds = lookup.probe_seconds
        ctx.report.sub_hit_entries = [entry.entry_id for entry in lookup.sub_hits]
        ctx.report.super_hit_entries = [entry.entry_id for entry in lookup.super_hits]
        if lookup.exact_entry is not None:
            ctx.report.exact_hit_entry = lookup.exact_entry.entry_id
            ctx.report.baseline_tests = lookup.exact_entry.baseline_tests


class FilterStage(PipelineStage):
    """Run Method M's filter to obtain the candidate set ``C_M``.

    A confirmed exact hit skips it: the cache already holds the answer and
    the entry's ``|C_M|`` (set by :class:`ProbeStage`).
    """

    name = "filter"

    def run(self, ctx: ExecutionContext) -> None:
        if ctx.lookup is not None and ctx.lookup.exact_entry is not None:
            return
        filter_start = time.perf_counter()
        candidates = ctx.method.filter_candidates(ctx.query.graph, ctx.query.query_type)
        ctx.report.filter_seconds = time.perf_counter() - filter_start
        ctx.report.method_candidates = set(candidates)
        ctx.report.baseline_tests = len(candidates)


class PruneStage(PipelineStage):
    """Prune ``C_M`` with the hits into ``S``, ``S'`` and ``C``."""

    name = "prune"

    def run(self, ctx: ExecutionContext) -> None:
        report, lookup = ctx.report, ctx.lookup
        if lookup is not None and lookup.exact_entry is not None:
            pruning = ctx.executor.pruner.exact_hit_result(lookup.exact_entry)
        else:
            pruning = ctx.executor.pruner.prune(
                ctx.query.query_type,
                report.method_candidates,
                lookup.sub_hits if lookup else [],
                lookup.super_hits if lookup else [],
            )
        ctx.pruning = pruning
        report.guaranteed_answers = pruning.guaranteed_answers
        report.guaranteed_non_answers = pruning.guaranteed_non_answers
        report.verified_candidates = set(pruning.remaining_candidates)


class VerifyStage(PipelineStage):
    """Sub-iso test the surviving candidates ``C`` (in stable id order)."""

    name = "verify"

    def run(self, ctx: ExecutionContext) -> None:
        assert ctx.pruning is not None, "VerifyStage requires PruneStage output"
        outcome = ctx.method.verify_candidates(
            ctx.query.graph,
            sorted(ctx.pruning.remaining_candidates, key=graph_id_sort_key),
            ctx.query.query_type,
        )
        ctx.outcome = outcome
        ctx.report.verified_answers = outcome.answers
        ctx.report.dataset_tests = outcome.num_tests
        ctx.report.verify_seconds = outcome.verify_seconds


class AssembleStage(PipelineStage):
    """Assemble ``A = R ∪ S`` and close the query's timing window."""

    name = "assemble"

    def run(self, ctx: ExecutionContext) -> None:
        assert ctx.pruning is not None, "AssembleStage requires PruneStage output"
        ctx.report.answer = set(ctx.outcome.answers) | set(ctx.pruning.guaranteed_answers)
        ctx.report.total_seconds = time.perf_counter() - ctx.started_at
        ctx.executor.observe_test_cost(ctx.outcome.num_tests, ctx.outcome.verify_seconds)


class AdmitStage(PipelineStage):
    """Credit contributing entries and offer the executed query for admission."""

    name = "admit"

    def run(self, ctx: ExecutionContext) -> None:
        if ctx.cache is None or ctx.lookup is None or ctx.pruning is None:
            return
        average_cost = ctx.executor.per_test_cost(
            ctx.outcome.num_tests, ctx.outcome.verify_seconds
        )
        ctx.cache.credit(ctx.lookup, ctx.pruning.per_hit_savings, average_cost, clock=ctx.clock)
        ctx.cache.offer(
            ctx.query,
            ctx.report.answer,
            observed_test_cost=average_cost,
            clock=ctx.clock,
            baseline_tests=ctx.report.baseline_tests,
            exact_hit=ctx.lookup.exact_entry is not None,
        )


class QueryPipeline:
    """The fixed Fig. 3 stage list with per-stage latency instrumentation."""

    def __init__(self) -> None:
        self.stages: tuple[PipelineStage, ...] = (
            ProbeStage(),
            FilterStage(),
            PruneStage(),
            VerifyStage(),
            AssembleStage(),
            AdmitStage(),
        )

    def run(self, ctx: ExecutionContext) -> QueryReport:
        """Flow one context through every stage, timing each.

        When the query carries a sampled trace context in its metadata
        (:data:`~repro.obs.trace.TRACE_KEY`), a ``pipeline`` scope lays out
        one child span per stage; the spans are recorded and attached to the
        report — the leaf subtree of the end-to-end distributed trace, which
        the scatter stamps with the shard that ran it.  The ``probe`` span
        carries the query's probe ``tests``, the ``verify`` span its dataset
        ``tests`` and how many of them ``matches``.
        """
        ctx.started_at = time.perf_counter()
        for stage in self.stages:
            stage_start = time.perf_counter()
            stage.run(ctx)
            ctx.report.stage_seconds[stage.name] = time.perf_counter() - stage_start
        if ctx.query.metadata.get(TRACE_KEY) is not None:
            context = context_from_carrier(ctx.query.metadata)
            if context is not None:
                report = ctx.report
                counts = {"probe": {"tests": report.probe_tests},
                          "verify": {"tests": report.dataset_tests,
                                     "matches": len(report.verified_answers)}}
                scope = SpanScope("pipeline", context, started=ctx.started_at)
                stages, offset = [], 0.0
                for stage, seconds in report.stage_seconds.items():
                    stages.append(scope.span(stage, offset, seconds, counts.get(stage)))
                    offset += seconds
                report.spans += [scope.close(spans=stages), *stages]
        return ctx.report


__all__ = [
    "ExecutionContext",
    "PipelineStage",
    "ProbeStage",
    "FilterStage",
    "PruneStage",
    "VerifyStage",
    "AssembleStage",
    "AdmitStage",
    "QueryPipeline",
]
