"""Graph operations used by the workload generators and the cache.

The central operation is :func:`random_connected_subgraph`: the paper states
that workload queries are "generated from graphs in dataset following
established principles", i.e. by extracting connected subgraphs from dataset
graphs (the standard methodology of the FTV literature).  Query graphs that
are subgraphs/supergraphs of each other — the situation GC exploits — are
produced by :func:`shrink_graph` and :func:`extend_graph`.
"""

from __future__ import annotations

import random as _random
from collections.abc import Iterable

from repro.errors import GraphError
from repro.graph.graph import Graph, VertexId


def _resolve_rng(rng: _random.Random | int | None) -> _random.Random:
    if isinstance(rng, _random.Random):
        return rng
    return _random.Random(rng)


def random_connected_subgraph(
    graph: Graph,
    num_vertices: int,
    rng: _random.Random | int | None = None,
    relabel: bool = True,
) -> Graph:
    """Extract a connected subgraph with ``num_vertices`` vertices.

    A random-walk/BFS frontier expansion is used: start from a random vertex
    and repeatedly absorb a random frontier neighbour.  The induced subgraph
    on the selected vertices is returned (standard query-generation procedure
    of the sub-iso indexing literature).

    With ``relabel`` the result's vertices are renamed ``0..k-1`` so the query
    does not leak dataset vertex identities.
    """
    if num_vertices < 1:
        raise GraphError("num_vertices must be positive")
    if num_vertices > graph.num_vertices:
        raise GraphError(
            f"cannot extract {num_vertices} vertices from a graph with {graph.num_vertices}"
        )
    rng = _resolve_rng(rng)
    vertices = graph.vertices()
    start = vertices[rng.randrange(len(vertices))]
    selected: set[VertexId] = {start}
    frontier: list[VertexId] = [v for v in graph.neighbors(start)]
    while len(selected) < num_vertices:
        if not frontier:
            # The component of `start` is exhausted; jump to a fresh vertex in
            # another component so we can still honour the size request.
            remaining = [v for v in vertices if v not in selected]
            if not remaining:
                break
            jump = remaining[rng.randrange(len(remaining))]
            selected.add(jump)
            frontier.extend(v for v in graph.neighbors(jump) if v not in selected)
            continue
        index = rng.randrange(len(frontier))
        frontier[index], frontier[-1] = frontier[-1], frontier[index]
        candidate = frontier.pop()
        if candidate in selected:
            continue
        selected.add(candidate)
        frontier.extend(v for v in graph.neighbors(candidate) if v not in selected)
    sub = graph.subgraph(selected)
    sub.graph_id = None
    sub.name = None
    return sub.relabel_vertices() if relabel else sub


def shrink_graph(
    graph: Graph,
    num_vertices: int,
    rng: _random.Random | int | None = None,
) -> Graph:
    """Return a connected subgraph of ``graph`` with ``num_vertices`` vertices.

    Used by the workload generator to create *sub-case* queries: the result is
    guaranteed (by construction) to be subgraph-isomorphic to ``graph``.
    """
    return random_connected_subgraph(graph, num_vertices, rng=rng, relabel=True)


def extend_graph(
    graph: Graph,
    extra_vertices: int,
    labels: Iterable[str],
    rng: _random.Random | int | None = None,
    extra_edge_probability: float = 0.2,
) -> Graph:
    """Return a supergraph of ``graph`` with ``extra_vertices`` more vertices.

    New vertices are attached to random existing vertices (keeping the graph
    connected); a few extra edges between new vertices may be added.  Used by
    the workload generator to create *super-case* queries: ``graph`` is
    subgraph-isomorphic to the result by construction.
    """
    if extra_vertices < 0:
        raise GraphError("extra_vertices must be non-negative")
    rng = _resolve_rng(rng)
    label_pool = list(labels)
    if extra_vertices > 0 and not label_pool:
        raise GraphError("a non-empty label pool is required to extend a graph")
    out = graph.relabel_vertices()
    next_id = out.num_vertices
    new_ids: list[int] = []
    for _ in range(extra_vertices):
        label = label_pool[rng.randrange(len(label_pool))]
        out.add_vertex(next_id, label)
        anchors = out.vertices()[:-1]
        if anchors:
            anchor = anchors[rng.randrange(len(anchors))]
            out.add_edge(next_id, anchor)
        new_ids.append(next_id)
        next_id += 1
    for i, u in enumerate(new_ids):
        for v in new_ids[i + 1:]:
            if rng.random() < extra_edge_probability and not out.has_edge(u, v):
                out.add_edge(u, v)
    return out

