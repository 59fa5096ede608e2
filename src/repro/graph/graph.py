"""Labelled undirected graph model used throughout the GC reproduction.

The paper targets *non-induced subgraph isomorphism for undirected labelled
graphs where only vertices have labels*; edge labels are nevertheless
supported (they "straightforwardly generalize" per the paper) and are taken
into account by the matchers when present.

:class:`Graph` is a small, dependency-free adjacency-set structure with the
operations the rest of the system needs: mutation, queries, subgraph
extraction, copying and a JSON-friendly dictionary form.
"""

from __future__ import annotations

import itertools
from collections import Counter
from collections.abc import Hashable, Iterable, Iterator, Mapping
from typing import Any

from repro.errors import (
    DuplicateVertexError,
    EdgeNotFoundError,
    GraphError,
    VertexNotFoundError,
)
from repro.graph.compiled import CompiledGraph

VertexId = Hashable
Label = str


def _edge_key(u: VertexId, v: VertexId) -> tuple[VertexId, VertexId]:
    """Return a canonical (sorted) key for an undirected edge."""
    a, b = (u, v) if repr(u) <= repr(v) else (v, u)
    return (a, b)


class Graph:
    """An undirected graph with labelled vertices and optional edge labels.

    Parameters
    ----------
    graph_id:
        Optional identifier (dataset graphs are typically numbered).
    name:
        Optional human readable name (e.g. a molecule name).

    Examples
    --------
    >>> g = Graph(graph_id=1)
    >>> g.add_vertex(0, "C")
    >>> g.add_vertex(1, "O")
    >>> g.add_edge(0, 1)
    >>> g.num_vertices, g.num_edges
    (2, 1)
    """

    __slots__ = (
        "graph_id", "name", "_labels", "_adj", "_edge_labels", "_num_edges", "_compiled",
    )

    def __init__(self, graph_id: int | str | None = None, name: str | None = None) -> None:
        self.graph_id = graph_id
        self.name = name
        self._labels: dict[VertexId, Label] = {}
        self._adj: dict[VertexId, set[VertexId]] = {}
        self._edge_labels: dict[tuple[VertexId, VertexId], Label] = {}
        self._num_edges = 0
        #: Derived bitset form (see :meth:`compiled`); every mutator drops it.
        self._compiled: CompiledGraph | None = None

    # ------------------------------------------------------------------ #
    # basic mutation
    # ------------------------------------------------------------------ #
    def add_vertex(self, vertex: VertexId, label: Label = "") -> None:
        """Add a vertex with a label; raise if the vertex already exists."""
        if vertex in self._labels:
            raise DuplicateVertexError(vertex)
        self._labels[vertex] = label
        self._adj[vertex] = set()
        self._compiled = None

    def add_vertices(self, items: Iterable[tuple[VertexId, Label]]) -> None:
        """Add many ``(vertex, label)`` pairs at once."""
        for vertex, label in items:
            self.add_vertex(vertex, label)

    def set_label(self, vertex: VertexId, label: Label) -> None:
        """Change the label of an existing vertex."""
        if vertex not in self._labels:
            raise VertexNotFoundError(vertex)
        self._labels[vertex] = label
        self._compiled = None

    def add_edge(self, u: VertexId, v: VertexId, label: Label | None = None) -> None:
        """Add an undirected edge between two existing vertices.

        Self loops are rejected (they never occur in the molecule-style data
        the paper targets and most sub-iso engines disallow them).  Adding an
        existing edge is a no-op apart from updating its label.
        """
        if u not in self._labels:
            raise VertexNotFoundError(u)
        if v not in self._labels:
            raise VertexNotFoundError(v)
        if u == v:
            raise GraphError(f"self loops are not supported (vertex {u!r})")
        if v not in self._adj[u]:
            self._adj[u].add(v)
            self._adj[v].add(u)
            self._num_edges += 1
        if label is not None:
            self._edge_labels[_edge_key(u, v)] = label
        self._compiled = None

    def remove_edge(self, u: VertexId, v: VertexId) -> None:
        """Remove the edge between ``u`` and ``v``; raise if absent."""
        if u not in self._adj or v not in self._adj[u]:
            raise EdgeNotFoundError(u, v)
        self._adj[u].discard(v)
        self._adj[v].discard(u)
        self._edge_labels.pop(_edge_key(u, v), None)
        self._num_edges -= 1
        self._compiled = None

    def remove_vertex(self, vertex: VertexId) -> None:
        """Remove a vertex and all its incident edges."""
        if vertex not in self._labels:
            raise VertexNotFoundError(vertex)
        for neighbor in list(self._adj[vertex]):
            self.remove_edge(vertex, neighbor)
        del self._adj[vertex]
        del self._labels[vertex]
        self._compiled = None

    # ------------------------------------------------------------------ #
    # basic queries
    # ------------------------------------------------------------------ #
    @property
    def num_vertices(self) -> int:
        """Number of vertices."""
        return len(self._labels)

    @property
    def num_edges(self) -> int:
        """Number of (undirected) edges."""
        return self._num_edges

    def __len__(self) -> int:
        return len(self._labels)

    def __contains__(self, vertex: VertexId) -> bool:
        return vertex in self._labels

    def vertices(self) -> list[VertexId]:
        """Return the vertex ids (insertion order)."""
        return list(self._labels)

    def edges(self) -> list[tuple[VertexId, VertexId]]:
        """Return every edge exactly once as a canonical ``(u, v)`` pair."""
        seen: set[tuple[VertexId, VertexId]] = set()
        out: list[tuple[VertexId, VertexId]] = []
        for u, neighbors in self._adj.items():
            for v in neighbors:
                key = _edge_key(u, v)
                if key not in seen:
                    seen.add(key)
                    out.append(key)
        return out

    def has_vertex(self, vertex: VertexId) -> bool:
        """Return True if the vertex exists."""
        return vertex in self._labels

    def has_edge(self, u: VertexId, v: VertexId) -> bool:
        """Return True if the undirected edge exists."""
        return u in self._adj and v in self._adj[u]

    def label(self, vertex: VertexId) -> Label:
        """Return the label of a vertex."""
        try:
            return self._labels[vertex]
        except KeyError:
            raise VertexNotFoundError(vertex) from None

    def edge_label(self, u: VertexId, v: VertexId) -> Label | None:
        """Return the label of an edge, or None if it is unlabelled."""
        if not self.has_edge(u, v):
            raise EdgeNotFoundError(u, v)
        return self._edge_labels.get(_edge_key(u, v))

    def neighbors(self, vertex: VertexId) -> set[VertexId]:
        """Return the neighbour set of a vertex (a copy is not made)."""
        try:
            return self._adj[vertex]
        except KeyError:
            raise VertexNotFoundError(vertex) from None

    def degree(self, vertex: VertexId) -> int:
        """Return the degree of a vertex."""
        return len(self.neighbors(vertex))

    def labels(self) -> dict[VertexId, Label]:
        """Return a copy of the vertex → label mapping."""
        return dict(self._labels)

    def label_counts(self) -> Counter[Label]:
        """Return a Counter of vertex labels (used for cheap filtering)."""
        return Counter(self._labels.values())

    def label_set(self) -> set[Label]:
        """Return the set of distinct vertex labels."""
        return set(self._labels.values())

    # ------------------------------------------------------------------ #
    # derived graphs
    # ------------------------------------------------------------------ #
    def subgraph(self, vertices: Iterable[VertexId]) -> "Graph":
        """Return the induced subgraph on ``vertices`` (labels preserved)."""
        wanted = set(vertices)
        missing = wanted - set(self._labels)
        if missing:
            raise VertexNotFoundError(next(iter(missing)))
        sub = Graph(graph_id=self.graph_id, name=self.name)
        for vertex in self._labels:
            if vertex in wanted:
                sub.add_vertex(vertex, self._labels[vertex])
        for u, v in self.edges():
            if u in wanted and v in wanted:
                sub.add_edge(u, v, self._edge_labels.get(_edge_key(u, v)))
        return sub

    def copy(self) -> "Graph":
        """Return a deep copy of the graph."""
        clone = Graph(graph_id=self.graph_id, name=self.name)
        clone._labels = dict(self._labels)
        clone._adj = {vertex: set(neighbors) for vertex, neighbors in self._adj.items()}
        clone._edge_labels = dict(self._edge_labels)
        clone._num_edges = self._num_edges
        return clone

    def relabel_vertices(self, mapping: Mapping[VertexId, VertexId] | None = None) -> "Graph":
        """Return a copy with vertex ids renamed.

        Without a mapping the vertices are renamed ``0..n-1`` in insertion
        order — handy for normalising query graphs extracted from dataset
        graphs.
        """
        if mapping is None:
            mapping = {vertex: index for index, vertex in enumerate(self._labels)}
        if len(set(mapping.values())) != len(mapping):
            raise GraphError("relabelling mapping is not injective")
        out = Graph(graph_id=self.graph_id, name=self.name)
        for vertex, label in self._labels.items():
            out.add_vertex(mapping[vertex], label)
        for u, v in self.edges():
            out.add_edge(mapping[u], mapping[v], self._edge_labels.get(_edge_key(u, v)))
        return out

    # ------------------------------------------------------------------ #
    # compiled form
    # ------------------------------------------------------------------ #
    def compiled(self) -> CompiledGraph:
        """The bitset form of the graph as it is now, built on first use.

        Vertices are numbered in :meth:`vertices` order.  Two threads may both
        find the slot empty and compile; they store equal values, so whichever
        store lands last is as good as the other.
        """
        compiled = self._compiled
        if compiled is None:
            compiled = self._compiled = CompiledGraph(self._labels, self._adj, self._edge_labels)
        return compiled

    def __getstate__(self) -> tuple:
        # the compiled form is derived data: never pickled (or deep-copied)
        return (
            self.graph_id, self.name, self._labels, self._adj,
            self._edge_labels, self._num_edges,
        )

    def __setstate__(self, state: tuple) -> None:
        (
            self.graph_id, self.name, self._labels, self._adj,
            self._edge_labels, self._num_edges,
        ) = state
        self._compiled = None

    # ------------------------------------------------------------------ #
    # serialisation
    # ------------------------------------------------------------------ #
    def to_dict(self) -> dict[str, Any]:
        """Serialise to a JSON friendly dictionary."""
        return {
            "graph_id": self.graph_id,
            "name": self.name,
            "vertices": [[vertex, label] for vertex, label in self._labels.items()],
            "edges": [
                [u, v, self._edge_labels.get(_edge_key(u, v))] for u, v in self.edges()
            ],
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "Graph":
        """Reconstruct a graph serialised by :meth:`to_dict`."""
        graph = cls(graph_id=payload.get("graph_id"), name=payload.get("name"))
        for vertex, label in payload.get("vertices", []):
            graph.add_vertex(vertex, label)
        for entry in payload.get("edges", []):
            u, v = entry[0], entry[1]
            label = entry[2] if len(entry) > 2 else None
            graph.add_edge(u, v, label)
        return graph

    # ------------------------------------------------------------------ #
    # dunder helpers
    # ------------------------------------------------------------------ #
    def __iter__(self) -> Iterator[VertexId]:
        return iter(self._labels)

    def __repr__(self) -> str:
        ident = f" id={self.graph_id!r}" if self.graph_id is not None else ""
        return f"<Graph{ident} |V|={self.num_vertices} |E|={self.num_edges}>"

    def structural_equal(self, other: "Graph") -> bool:
        """Exact equality of vertex ids, labels and edges (not isomorphism)."""
        if not isinstance(other, Graph):
            return False
        return (
            self._labels == other._labels
            and {vertex: frozenset(adj) for vertex, adj in self._adj.items()}
            == {vertex: frozenset(adj) for vertex, adj in other._adj.items()}
            and self._edge_labels == other._edge_labels
        )


def graph_from_edges(
    edges: Iterable[tuple[VertexId, VertexId]],
    labels: Mapping[VertexId, Label] | None = None,
    graph_id: int | str | None = None,
) -> Graph:
    """Convenience constructor from an edge list plus optional labels.

    Vertices mentioned only in ``labels`` (isolated vertices) are added too.
    Unlabelled vertices get the empty label.
    """
    labels = dict(labels or {})
    graph = Graph(graph_id=graph_id)
    edge_list = list(edges)
    seen: list[VertexId] = []
    for u, v in edge_list:
        for vertex in (u, v):
            if vertex not in graph:
                graph.add_vertex(vertex, labels.get(vertex, ""))
                seen.append(vertex)
    for vertex, label in labels.items():
        if vertex not in graph:
            graph.add_vertex(vertex, label)
    for u, v in edge_list:
        graph.add_edge(u, v)
    return graph


def complete_graph(labels: Iterable[Label], graph_id: int | str | None = None) -> Graph:
    """Build a complete graph whose vertices carry the given labels."""
    graph = Graph(graph_id=graph_id)
    label_list = list(labels)
    for index, label in enumerate(label_list):
        graph.add_vertex(index, label)
    for a, b in itertools.combinations(range(len(label_list)), 2):
        graph.add_edge(a, b)
    return graph


def path_graph(labels: Iterable[Label], graph_id: int | str | None = None) -> Graph:
    """Build a simple path whose vertices carry the given labels in order."""
    graph = Graph(graph_id=graph_id)
    label_list = list(labels)
    for index, label in enumerate(label_list):
        graph.add_vertex(index, label)
    for index in range(len(label_list) - 1):
        graph.add_edge(index, index + 1)
    return graph


def cycle_graph(labels: Iterable[Label], graph_id: int | str | None = None) -> Graph:
    """Build a simple cycle whose vertices carry the given labels in order."""
    label_list = list(labels)
    if len(label_list) < 3:
        raise GraphError("a cycle needs at least three vertices")
    graph = path_graph(label_list, graph_id=graph_id)
    graph.add_edge(len(label_list) - 1, 0)
    return graph


def star_graph(center_label: Label, leaf_labels: Iterable[Label], graph_id: int | str | None = None) -> Graph:
    """Build a star: one centre vertex connected to each leaf."""
    graph = Graph(graph_id=graph_id)
    graph.add_vertex(0, center_label)
    for index, label in enumerate(leaf_labels, start=1):
        graph.add_vertex(index, label)
        graph.add_edge(0, index)
    return graph
