"""Canonical forms for small graphs.

The cache needs to decide whether two query graphs are isomorphic
(exact-match detection).  Its screen (equal label-path multisets, in
:class:`repro.cache.store.CacheStore`) only proves *non*-isomorphism; a
candidate it lets through is decided here:

* :func:`canonical_code` — an exact canonical form computed by trying all
  automorphism-compatible orderings with heavy pruning.  Exponential in the
  worst case, intended for the small query graphs (≤ ~30 vertices) the paper
  uses; beyond :data:`CANONICAL_MAX_VERTICES` it gives up and the cache falls
  back to a full isomorphism test.

The code is memoised with the graph's compiled form, so a resident cache
entry pays for it once, not once per exact-match candidate check.
"""

from __future__ import annotations

import itertools

from repro.graph.graph import Graph, VertexId

#: Largest graph :func:`canonical_code` attempts.
CANONICAL_MAX_VERTICES = 24


def _refine_partition(graph: Graph) -> dict[VertexId, int]:
    """Colour-refinement: return a stable colour class per vertex."""
    colors: dict[VertexId, tuple] = {
        vertex: (graph.label(vertex), graph.degree(vertex)) for vertex in graph.vertices()
    }
    while True:
        new_colors: dict[VertexId, tuple] = {}
        for vertex in graph.vertices():
            neighbor_colors = tuple(sorted(colors[n] for n in graph.neighbors(vertex)))
            new_colors[vertex] = (colors[vertex], neighbor_colors)
        if len(set(new_colors.values())) == len(set(colors.values())):
            colors = new_colors
            break
        colors = new_colors
    # map the (arbitrary, hashable) colours to dense integers deterministically
    ordered = {color: index for index, color in enumerate(sorted(set(colors.values()), key=repr))}
    return {vertex: ordered[colors[vertex]] for vertex in graph.vertices()}


def canonical_code(graph: Graph) -> str | None:
    """Exact canonical string, or ``None`` if the graph is too large.

    The code is the lexicographically smallest serialisation over all vertex
    orderings compatible with the colour-refinement classes.  Two graphs are
    isomorphic iff their canonical codes are equal (when both are computed).
    """
    compiled = graph.compiled()
    boxed = compiled.canonical
    if boxed is None:
        boxed = compiled.canonical = (_canonical_code(graph),)
    return boxed[0]


def _canonical_code(graph: Graph) -> str | None:
    n = graph.num_vertices
    if n == 0:
        return "empty"
    if n > CANONICAL_MAX_VERTICES:
        return None
    colors = _refine_partition(graph)
    # group vertices by colour class; permute only within classes
    classes: dict[int, list[VertexId]] = {}
    for vertex, color in colors.items():
        classes.setdefault(color, []).append(vertex)
    class_order = sorted(classes)
    # guard against factorial blow-up inside a colour class
    budget = 1
    for color in class_order:
        budget *= _factorial_capped(len(classes[color]), cap=50000)
        if budget > 50000:
            return None
    best: str | None = None
    for ordering in _orderings(classes, class_order):
        code = _serialise(graph, ordering)
        if best is None or code < best:
            best = code
    return best


def _factorial_capped(k: int, cap: int) -> int:
    result = 1
    for i in range(2, k + 1):
        result *= i
        if result > cap:
            return result
    return result


def _orderings(classes: dict[int, list[VertexId]], class_order: list[int]):
    """Yield full vertex orderings as products of per-class permutations."""
    per_class = [list(itertools.permutations(classes[color])) for color in class_order]
    for combo in itertools.product(*per_class):
        ordering: list[VertexId] = []
        for group in combo:
            ordering.extend(group)
        yield ordering


def _serialise(graph: Graph, ordering: list[VertexId]) -> str:
    position = {vertex: index for index, vertex in enumerate(ordering)}
    labels = ",".join(graph.label(vertex) for vertex in ordering)
    edges = []
    for u, v in graph.edges():
        a, b = sorted((position[u], position[v]))
        edge_label = graph.edge_label(u, v) or ""
        edges.append(f"{a}-{b}:{edge_label}")
    return labels + "|" + ";".join(sorted(edges))


def definitely_isomorphic(first: Graph, second: Graph) -> bool | None:
    """Exact isomorphism via canonical codes; ``None`` when undecided.

    ``None`` means at least one canonical code could not be computed within
    the size limit — the caller should fall back to a full matcher.
    """
    code_first = canonical_code(first)
    code_second = canonical_code(second)
    if code_first is None or code_second is None:
        return None
    return code_first == code_second


def degree_profile_contained(query: Graph, target: Graph) -> bool:
    """Necessary condition for ``query ⊆ target`` based on per-label degrees.

    For every query vertex there must exist a distinct target vertex with the
    same label and at least the same degree.  (Exact per label, because
    degrees within one label class are a total order.)
    """
    return query.compiled().degree_profile_fits(target.compiled())


def size_contained(query: Graph, target: Graph) -> bool:
    """Necessary condition for ``query ⊆ target``: vertex and edge counts."""
    return query.num_vertices <= target.num_vertices and query.num_edges <= target.num_edges


def quick_containment_screen(query: Graph, target: Graph) -> bool:
    """All cheap necessary conditions for ``query ⊆ target`` combined.

    (The degree profile at degree 0 *is* the label multiset, so that
    condition needs no call of its own.)
    """
    return size_contained(query, target) and degree_profile_contained(query, target)

