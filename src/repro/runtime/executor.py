"""Query Processing Runtime: orchestrates Method M and the cache per query.

Each query flows through the staged pipeline of
:mod:`repro.runtime.pipeline` (the paper's Fig. 3 dataflow):

1. ``ProbeStage``    — the cache is probed (exact / sub case / super case);
2. ``FilterStage``   — Method M's filter yields the candidate set ``C_M``
   (skipped on an exact hit, which the cache answers outright);
3. ``PruneStage``    — hits prune ``C_M`` into ``S``, ``S'`` and ``C``;
4. ``VerifyStage``   — only ``C`` is verified with sub-iso tests → ``R``;
5. ``AssembleStage`` — the answer ``A = R ∪ S`` is assembled;
6. ``AdmitStage``    — contributing entries are credited and the executed
   query is offered for admission.

When the cache is disabled (or empty) the probe/prune stages contribute
nothing and the executor behaves exactly like Method M — the correctness
property the test suite leans on is that the answers are identical in both
modes.  The executor is thread-safe: many queries may run through
:meth:`execute` concurrently (the cache serialises its own mutations and the
running-average test cost is guarded here).
"""

from __future__ import annotations

import threading

from repro.cache.graph_cache import GraphCache
from repro.cache.pruner import CandidateSetPruner
from repro.cache.statistics import StatisticsManager
from repro.graph.graph import Graph
from repro.methods.base import MethodM
from repro.query_model import Query, QueryType
from repro.runtime.pipeline import ExecutionContext, QueryPipeline
from repro.runtime.report import QueryReport


class QueryExecutor:
    """Executes queries over Method M, accelerated by a :class:`GraphCache`."""

    def __init__(
        self,
        method: MethodM,
        cache: GraphCache | None,
        statistics: StatisticsManager | None = None,
    ) -> None:
        self.method = method
        self.cache = cache
        self.statistics = statistics or StatisticsManager()
        self.pruner = CandidateSetPruner()
        self.pipeline = QueryPipeline()
        #: Running average cost of one dataset sub-iso test (seconds); used to
        #: convert saved tests into saved time when a query runs no tests.
        self._average_test_cost = 0.0
        self._observed_tests = 0
        self._cost_lock = threading.Lock()

    # ------------------------------------------------------------------ #
    # public API
    # ------------------------------------------------------------------ #
    def execute(self, query: Query | Graph, query_type: QueryType | str | None = None) -> QueryReport:
        """Process one query through the pipeline and return its full report."""
        if not isinstance(query, Query):
            query = Query(graph=query, query_type=QueryType.parse(query_type or QueryType.SUBGRAPH))
        ctx = ExecutionContext(query=query, executor=self, report=QueryReport(query=query))
        self.pipeline.run(ctx)
        # Method M is not run a second time: its seconds are estimated from
        # its filter and its |C_M| tests at the running average test cost
        ctx.report.baseline_seconds = ctx.report.filter_seconds + (
            ctx.report.baseline_tests * self._average_test_cost
        )
        self.statistics.record(ctx.report)
        return ctx.report

    # ------------------------------------------------------------------ #
    # test-cost accounting (shared with the pipeline stages)
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
