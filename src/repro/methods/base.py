"""Method M: the pluggable filter-then-verify query processor.

In the paper's architecture (Fig. 1) Method M is the component GC wraps: it
owns the dataset graphs, a Filter (a dataset index — possibly trivial) and a
Verifier (a sub-iso engine).  GC never re-implements query answering; it only
*reduces the candidate set* Method M would have verified.

:class:`MethodM` therefore exposes both the classic full execution
(:meth:`execute`) used by the no-cache baseline, and
:meth:`verify_candidates`, which GC calls with its pruned candidate set.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from collections.abc import Iterable, Sequence

from repro.errors import MethodError
from repro.features.base import FeatureExtractor
from repro.graph.graph import Graph
from repro.index.base import GraphId, graph_id_sort_key
from repro.index.containment import DatasetIndex
from repro.isomorphism.base import SubgraphMatcher
from repro.isomorphism.vf2 import VF2Matcher
from repro.query_model import QueryType


@dataclass
class VerificationOutcome:
    """Result of verifying one batch of candidates."""

    answers: set[GraphId] = field(default_factory=set)
    num_tests: int = 0
    verify_seconds: float = 0.0


@dataclass
class MethodResult:
    """Full outcome of processing one query with Method M (no cache)."""

    answer: set[GraphId] = field(default_factory=set)
    candidates: set[GraphId] = field(default_factory=set)
    num_subiso_tests: int = 0
    filter_seconds: float = 0.0
    verify_seconds: float = 0.0

    @property
    def total_seconds(self) -> float:
        """Filtering plus verification time."""
        return self.filter_seconds + self.verify_seconds


class MethodM:
    """Filter-then-verify over one :class:`DatasetIndex`; plain SI without one.

    A concrete method only chooses the feature family it filters with
    (:meth:`_extractor`); a method that chooses none has no index and every
    dataset graph is a candidate.
    """

    name: str = "abstract"
    #: Longest label path (in edges) the filter reads off a query (0: none).
    path_length: int = 0
    #: Does the filter count exact vertex-label multisets?  Then every
    #: candidate's size and labels already fit the query, and the verifier
    #: skips that screen (``SubgraphMatcher.matches(..., screened=True)``).
    filter_proves_labels: bool = False

    def __init__(self, verifier: SubgraphMatcher | None = None) -> None:
        self.verifier = verifier or VF2Matcher()
        #: The filter, built by :meth:`build` (``None``: no filtering).
        self.index: DatasetIndex | None = None
        self._dataset: dict[GraphId, Graph] = {}
        self._graph_order: list[GraphId] = []
        self._built = False

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #
    def build(self, dataset: Sequence[Graph] | Iterable[Graph]) -> None:
        """Register the dataset graphs and build the filter index."""
        if self._built:
            raise MethodError(f"{self.name} has already been built")
        graphs = list(dataset)
        for position, graph in enumerate(graphs):
            graph_id = graph.graph_id if graph.graph_id is not None else position
            if graph_id in self._dataset:
                raise MethodError(f"duplicate graph id {graph_id!r} in dataset")
            self._dataset[graph_id] = graph
            self._graph_order.append(graph_id)
        extractor = self._extractor()
        if extractor is not None:
            self.index = DatasetIndex(extractor)
            self.index.build(graphs)
        self._built = True

    def _extractor(self) -> FeatureExtractor | None:
        """The feature family the filter indexes (``None``: no filter)."""
        return None

    def _filter_candidates(self, query: Graph, query_type: QueryType) -> set[GraphId]:
        if self.index is None:
            return set(self._graph_order)
        return self.index.candidates(query, query_type)

    # ------------------------------------------------------------------ #
    # dataset access
    # ------------------------------------------------------------------ #
    def graph_ids(self) -> list[GraphId]:
        """All dataset graph ids in dataset order."""
        self._require_built()
        return list(self._graph_order)

    @property
    def dataset_size(self) -> int:
        """Number of dataset graphs."""
        return len(self._graph_order)

    # ------------------------------------------------------------------ #
    # query processing
    # ------------------------------------------------------------------ #
    def filter_candidates(self, query: Graph, query_type: QueryType | str) -> set[GraphId]:
        """Run only the filtering stage and return the candidate set."""
        self._require_built()
        return self._filter_candidates(query, QueryType.parse(query_type))

    def verify_candidates(
        self, query: Graph, candidates: Iterable[GraphId], query_type: QueryType | str
    ) -> VerificationOutcome:
        """Verify every candidate, in order, on the calling thread.

        One sub-iso test per candidate: ``query ⊆ G`` for subgraph queries,
        ``G ⊆ query`` for supergraph queries, all in one
        :meth:`~repro.isomorphism.base.SubgraphMatcher.matches` call.
        """
        self._require_built()
        subgraph = QueryType.parse(query_type) is QueryType.SUBGRAPH
        graph_ids = list(candidates)
        start = time.perf_counter()
        try:
            targets = [self._dataset[graph_id] for graph_id in graph_ids]
        except KeyError as exc:
            raise MethodError(f"graph id {exc.args[0]!r} is not part of the dataset") from None
        found = self.verifier.matches(query, targets, subgraph, self.filter_proves_labels)
        outcome = VerificationOutcome(
            answers={graph_id for graph_id, hit in zip(graph_ids, found) if hit},
            num_tests=len(graph_ids),
        )
        outcome.verify_seconds = time.perf_counter() - start
        return outcome

    def execute(self, query: Graph, query_type: QueryType | str) -> MethodResult:
        """Classic filter-then-verify execution without any cache."""
        self._require_built()
        query_type = QueryType.parse(query_type)
        result = MethodResult()
        start = time.perf_counter()
        result.candidates = self._filter_candidates(query, query_type)
        result.filter_seconds = time.perf_counter() - start
        outcome = self.verify_candidates(
            query, sorted(result.candidates, key=graph_id_sort_key), query_type
        )
        result.answer = outcome.answers
        result.num_subiso_tests = outcome.num_tests
        result.verify_seconds = outcome.verify_seconds
        return result

    # ------------------------------------------------------------------ #
    # accounting
    # ------------------------------------------------------------------ #
    def index_memory_bytes(self) -> int:
        """Memory footprint of the method's filter index (0 if none)."""
        return self.index.memory_bytes() if self.index is not None else 0

    def describe(self) -> dict[str, object]:
        """Describe the method and its filter for reports."""
        description: dict[str, object] = {
            "name": self.name,
            "verifier": self.verifier.name,
            "dataset_size": self.dataset_size,
        }
        if self.index is not None:
            description["index"] = self.index.describe()
        return description

    def _require_built(self) -> None:
        if not self._built:
            raise MethodError(f"{self.name} has not been built over a dataset yet")
