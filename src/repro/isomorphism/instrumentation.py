"""Instrumented wrappers around sub-iso engines.

GC's whole value proposition is counted in *sub-iso tests saved*, and its
PINC policy additionally needs the *time* spent per test.  The
:class:`CountingMatcher` decorator accumulates those metrics for any
underlying engine, and is what the query runtime actually hands to Method M.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

from repro.graph.graph import Graph, VertexId
from repro.isomorphism.base import MatchResult, SubgraphMatcher


@dataclass
class VerifierTally:
    """Running totals across many sub-iso tests."""

    tests: int = 0
    positives: int = 0
    negatives: int = 0
    states_visited: int = 0
    total_seconds: float = 0.0

    def record(self, result: MatchResult) -> None:
        """Fold one test outcome into the tally."""
        self.tests += 1
        if result.found:
            self.positives += 1
        else:
            self.negatives += 1
        self.states_visited += result.stats.states_visited
        self.total_seconds += result.stats.elapsed_seconds

    @property
    def average_seconds(self) -> float:
        """Average wall-clock seconds per test (0.0 with no tests)."""
        if not self.tests:
            return 0.0
        return self.total_seconds / self.tests

    def reset(self) -> None:
        """Zero every counter."""
        self.tests = 0
        self.positives = 0
        self.negatives = 0
        self.states_visited = 0
        self.total_seconds = 0.0

    def snapshot(self) -> dict[str, float]:
        """Return the tally as a plain dictionary (for dashboards/reports)."""
        return {
            "tests": self.tests,
            "positives": self.positives,
            "negatives": self.negatives,
            "states_visited": self.states_visited,
            "total_seconds": self.total_seconds,
            "average_seconds": self.average_seconds,
        }


class CountingMatcher(SubgraphMatcher):
    """Decorator that counts every test performed by an inner matcher."""

    def __init__(self, inner: SubgraphMatcher) -> None:
        self.inner = inner
        self.name = f"counting({inner.name})"
        self.tally = VerifierTally()
        # one matcher is entered from several threads at once (library callers,
        # two scatter slots serving one thread shard, a shard worker's HTTP
        # handler threads), so tally updates are serialised
        self._lock = threading.Lock()

    def find_embedding(self, query: Graph, target: Graph) -> MatchResult:
        """Run the inner matcher and record its statistics."""
        result = self.inner.find_embedding(query, target)
        with self._lock:
            self.tally.record(result)
        return result

    def find_all_embeddings(
        self, query: Graph, target: Graph, limit: int | None = None
    ) -> list[dict[VertexId, VertexId]]:
        """Delegate enumeration to the inner matcher (counted as one test)."""
        embeddings = self.inner.find_all_embeddings(query, target, limit=limit)
        with self._lock:
            self.tally.tests += 1
            if embeddings:
                self.tally.positives += 1
            else:
                self.tally.negatives += 1
        return embeddings

    def reset(self) -> None:
        """Reset the tally (e.g. between workload runs)."""
        self.tally.reset()
