"""Query model shared by every layer (index, methods, cache, runtime).

Kept in its own module (rather than inside ``repro.runtime``) so the lower
layers can import :class:`QueryType` without circular dependencies.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass, field

from repro.graph.graph import Graph


class QueryType(enum.Enum):
    """The two query semantics GC accelerates.

    * ``SUBGRAPH`` — return dataset graphs ``G`` with ``query ⊆ G``.
    * ``SUPERGRAPH`` — return dataset graphs ``G`` with ``G ⊆ query``.
    """

    SUBGRAPH = "subgraph"
    SUPERGRAPH = "supergraph"

    @classmethod
    def parse(cls, value: "QueryType | str") -> "QueryType":
        """Accept either an enum member or its string value."""
        if isinstance(value, cls):
            return value
        try:
            return cls(value.lower())
        except ValueError:
            raise ValueError(
                f"unknown query type {value!r}; expected 'subgraph' or 'supergraph'"
            ) from None


_query_counter = itertools.count(1)


@dataclass
class Query:
    """A pattern graph plus its query semantics."""

    graph: Graph
    query_type: QueryType = QueryType.SUBGRAPH
    query_id: int = field(default_factory=lambda: next(_query_counter))
    metadata: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.query_type = QueryType.parse(self.query_type)

    @property
    def num_vertices(self) -> int:
        """Number of vertices of the pattern graph."""
        return self.graph.num_vertices

    @property
    def num_edges(self) -> int:
        """Number of edges of the pattern graph."""
        return self.graph.num_edges

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return (
            f"<Query id={self.query_id} type={self.query_type.value}"
            f" |V|={self.num_vertices} |E|={self.num_edges}>"
        )


def as_query(query: Query | Graph, query_type: QueryType | str | None = None) -> Query:
    """``query`` itself, or a bare pattern graph wrapped as a :class:`Query`
    (a subgraph query unless ``query_type`` says otherwise)."""
    if isinstance(query, Query):
        return query
    return Query(graph=query, query_type=QueryType.parse(query_type or QueryType.SUBGRAPH))
