"""Common interfaces for the subgraph isomorphism engines (the "Verifier").

GC treats the sub-iso implementation as a pluggable component of Method M.
The engine implements :class:`SubgraphMatcher`; the cache and the query
runtime only depend on this interface, so a test or a benchmark can hand
Method M another verifier (``MethodM(verifier=...)``).  Every dataset test
and every cache probe goes through one set-level entry,
:meth:`SubgraphMatcher.matches`: one side of the tests is fixed and the
other sweeps a candidate set, one flag per candidate.  The base class loops
:meth:`~SubgraphMatcher.is_subgraph`; an engine overrides it to read the
fixed side once.  A test counts and times nothing: what a query's tests
cost is counted once per query, by the pipeline
(``QueryReport.dataset_tests`` / ``probe_tests`` / ``verify_seconds``).

Matching semantics follow the paper: *non-induced* subgraph isomorphism on
undirected graphs with vertex labels (edge labels are honoured when present
on the query).  A query vertex may only be mapped to a target vertex with an
identical label; every query edge must map to a target edge.
"""

from __future__ import annotations

import abc
from collections.abc import Callable, Sequence

from repro.graph.graph import Graph, VertexId


class MatchResult:
    """Outcome of one subgraph isomorphism test.

    ``mapping`` (query vertex → target vertex) is ``None`` when no embedding
    was found.  An engine may pass ``decode``, a function building the
    mapping, in its place: it runs on the first read of ``mapping``, from the
    graphs as they are then, so read it before editing either graph.
    """

    __slots__ = ("found", "_mapping", "_decode")

    def __init__(
        self,
        found: bool,
        mapping: dict[VertexId, VertexId] | None = None,
        decode: Callable[[], dict[VertexId, VertexId]] | None = None,
    ) -> None:
        self.found = found
        self._mapping = mapping
        self._decode = decode

    @property
    def mapping(self) -> dict[VertexId, VertexId] | None:
        if self._decode is not None:
            self._mapping, self._decode = self._decode(), None
        return self._mapping

    def __bool__(self) -> bool:  # pragma: no cover - trivial
        return self.found

    def __repr__(self) -> str:
        return f"MatchResult(found={self.found}, mapping={self.mapping!r})"


class SubgraphMatcher(abc.ABC):
    """Abstract subgraph isomorphism engine.

    Subclasses implement :meth:`find_embedding`; :meth:`is_subgraph`,
    :meth:`matches` and :meth:`count_embeddings` are derived from it.
    """

    #: Human readable engine name (used in registries and reports).
    name: str = "abstract"

    @abc.abstractmethod
    def find_embedding(self, query: Graph, target: Graph) -> MatchResult:
        """Search for one embedding of ``query`` into ``target``."""

    def is_subgraph(self, query: Graph, target: Graph) -> bool:
        """Return True iff ``query`` is subgraph-isomorphic to ``target``."""
        return self.find_embedding(query, target).found

    def matches(self, graph: Graph, others: Sequence[Graph], graph_is_pattern: bool,
                screened: bool = False) -> list[bool]:
        """One flag per graph of ``others``, in order: ``graph ⊆ other`` when
        ``graph_is_pattern``, else ``other ⊆ graph``.

        ``screened`` promises that each pattern's size and vertex-label
        multiset already fit its host, so an engine may skip that screen; it
        changes what a test costs, never its answer.
        """
        if graph_is_pattern:
            return [self.is_subgraph(graph, other) for other in others]
        return [self.is_subgraph(other, graph) for other in others]

    def find_all_embeddings(
        self, query: Graph, target: Graph, limit: int | None = None
    ) -> list[dict[VertexId, VertexId]]:
        """Enumerate embeddings (default implementation raises).

        Engines that support enumeration override this; GC itself only needs
        the boolean test, so enumeration is optional.
        """
        raise NotImplementedError(f"{self.name} does not support embedding enumeration")

    def count_embeddings(self, query: Graph, target: Graph, limit: int | None = None) -> int:
        """Count embeddings (delegates to :meth:`find_all_embeddings`)."""
        return len(self.find_all_embeddings(query, target, limit=limit))


def trivially_impossible(query: Graph, target: Graph) -> bool:
    """Cheap necessary-condition screen for one test.

    Returns True when the query certainly cannot embed into the target
    (size, label multiset, or degree bounds are violated).  Reads the graphs'
    compiled invariants.  :meth:`SubgraphMatcher.matches` skips the size and
    label part when its caller has already proved it (``screened``).
    """
    if query.num_vertices > target.num_vertices or query.num_edges > target.num_edges:
        return True
    pattern, host = query.compiled(), target.compiled()
    return pattern.max_degree > host.max_degree or not pattern.labels_fit(host)

