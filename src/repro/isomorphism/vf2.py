"""VF2-style subgraph isomorphism engine.

This is a from-scratch implementation of the VF2 algorithm of Cordella et al.
(TPAMI 2004, reference [3] of the paper), adapted to *non-induced* matching
(subgraph monomorphism): every query edge must be mapped onto a target edge,
while extra target edges between mapped vertices are allowed.  Vertex labels
must match exactly; query edge labels, when present, must match the target
edge labels.

The search runs on compiled graphs (:mod:`repro.graph.compiled`): the
pattern's :class:`~repro.graph.compiled.MatchPlan` fixes the placement order
and what each step requires, and the kernel computes a step's *whole*
candidate set with a few ``&`` over the target's bitsets instead of testing
target vertices one at a time.  Both sides are compiled once per graph, so a
query verified against its ~30 candidates — or a dataset graph verified for
the life of the process — pays for order, labels and degrees once.

Every dataset test and cache probe arrives through :meth:`VF2Matcher.matches`,
which reads the fixed side's compiled form once per candidate set and runs
the kernel to its first embedding; it builds no
:class:`~repro.isomorphism.base.MatchResult` and no mapping.  When the
caller has proved sizes and labels (``screened``), only the degree guard the
kernel's indexing needs runs before the search.  :meth:`~VF2Matcher.find_embedding`
and :meth:`~VF2Matcher.find_all_embeddings` wrap the same search loop,
:func:`_images`; they screen each pair themselves and decode an embedding
into a vertex-id mapping only when it is read.  A test counts nothing: the
pipeline counts a query's tests and times its verification once per query,
and the PINC replacement policy reads that per-query ``verify_seconds``.  The
kernel counts its search states only to honour ``node_budget``.
"""

from __future__ import annotations

from collections.abc import Sequence

from repro.errors import BudgetExceededError
from repro.graph.compiled import CompiledGraph, MatchPlan
from repro.graph.graph import Graph, VertexId
from repro.isomorphism.base import MatchResult, SubgraphMatcher, trivially_impossible


class VF2Matcher(SubgraphMatcher):
    """VF2 subgraph (monomorphism) matcher.

    Parameters
    ----------
    node_budget:
        Optional cap on the number of search states; exceeding it raises
        :class:`~repro.errors.BudgetExceededError`.  ``None`` disables the cap
        (queries in this domain are small, so unbounded is the default).
    """

    name = "vf2"

    def __init__(self, node_budget: int | None = None) -> None:
        self.node_budget = node_budget

    # ------------------------------------------------------------------ #
    # public API
    # ------------------------------------------------------------------ #
    def find_embedding(self, query: Graph, target: Graph) -> MatchResult:
        """Find one embedding of ``query`` into ``target`` (or report none).

        The mapping is built only if the result's ``mapping`` is read.
        """
        images = _screened_images(query, target, self.node_budget, 1)
        if not images:
            return MatchResult(found=False)
        return MatchResult(found=True, decode=lambda: _mapping(query, target, images[0]))

    def find_all_embeddings(
        self, query: Graph, target: Graph, limit: int | None = None
    ) -> list[dict[VertexId, VertexId]]:
        """Enumerate (up to ``limit``) embeddings of ``query`` into ``target``."""
        return _search(query, target, self.node_budget, limit)

    def matches(self, graph: Graph, others: Sequence[Graph], graph_is_pattern: bool,
                screened: bool = False) -> list[bool]:
        """One flag per graph of ``others`` (see :meth:`SubgraphMatcher.matches`).

        The fixed side's compiled form is read once.  A pattern's plan is
        built (and memoised) only when one of its tests reaches the kernel,
        and each test stops at its first embedding.
        """
        fixed, budget, flags = graph.compiled(), self.node_budget, []
        for other in others:
            if graph_is_pattern:
                pattern, host, pair = fixed, other.compiled(), (graph, other)
            else:
                pattern, host, pair = other.compiled(), fixed, (other, graph)
            # the degree guard is what keeps the plan inside ``degree_at_least``
            flags.append(pattern.max_degree <= host.max_degree
                         and (screened or not trivially_impossible(*pair))
                         and bool(_images(pattern.plan(), host, budget, 1)))
        return flags


def _search(
    query: Graph,
    target: Graph,
    node_budget: int | None,
    limit: int | None,
) -> list[dict[VertexId, VertexId]]:
    """Up to ``limit`` embeddings, each a query → target vertex id mapping."""
    return [_mapping(query, target, image)
            for image in _screened_images(query, target, node_budget, limit)]


def _screened_images(query: Graph, target: Graph, node_budget: int | None,
                     limit: int | None) -> list[tuple[int, ...]]:
    """:func:`_images` of one pair, behind its size, label and degree screen."""
    if trivially_impossible(query, target):
        return []
    return _images(query.compiled().plan(), target.compiled(), node_budget, limit)


def _mapping(query: Graph, target: Graph, image: tuple[int, ...]) -> dict[VertexId, VertexId]:
    """Decode one embedding the kernel found into vertex ids."""
    order = query.compiled().plan().order
    query_ids, target_ids = query.vertices(), target.vertices()
    return {query_ids[order[position]]: target_ids[vertex]
            for position, vertex in enumerate(image)}


def _images(plan: MatchPlan, host: CompiledGraph, node_budget: int | None,
            limit: int | None) -> list[tuple[int, ...]]:
    """The match kernel: depth-first placement along the pattern's plan.

    The one search loop of this module.  ``host`` must have a vertex of at
    least the pattern's largest degree (the plan's degrees index
    ``degree_at_least``).  Each embedding found is its *image*: the target
    vertex (dense position) placed at each plan position, which
    :func:`_mapping` decodes into ids.  A *state* is one candidate target
    vertex tried at one plan position.  ``pending[depth]`` holds the
    not-yet-tried candidates of each open position, so backtracking is
    popping an int.
    """
    labels, min_degrees, back = plan.labels, plan.min_degrees, plan.back
    if not labels:
        return [()]
    forward_needs, back_edge_labels = plan.forward_needs, plan.back_edge_labels
    adj, label_bits, at_least = host.adj_bits, host.label_bits, host.degree_at_least
    host_edge_labels = host.edge_labels or {}

    size = len(labels)
    image = [0] * size
    pending = [0] * size
    found: list[tuple[int, ...]] = []
    used = 0
    depth = 0
    states = 0
    candidates = label_bits.get(labels[0], 0) & at_least[min_degrees[0]]
    while True:
        if not candidates:
            if depth == 0:
                return found
            depth -= 1
            used ^= 1 << image[depth]
            candidates = pending[depth]
            continue
        low = candidates & -candidates
        candidates ^= low
        vertex = low.bit_length() - 1
        states += 1
        if node_budget is not None and states > node_budget:
            raise BudgetExceededError(node_budget)

        # one-step look-ahead: enough free neighbours of each label the
        # pattern vertex's unplaced neighbours carry
        feasible = True
        needs = forward_needs[depth]
        if needs:
            free = adj[vertex] & ~used
            for label, count in needs:
                if (free & label_bits.get(label, 0)).bit_count() < count:
                    feasible = False
                    break
        if feasible and back_edge_labels is not None:
            for position, edge_label in back_edge_labels[depth]:
                other = image[position]
                edge = (vertex, other) if vertex < other else (other, vertex)
                if host_edge_labels.get(edge) != edge_label:
                    feasible = False
                    break
        if not feasible:
            continue

        image[depth] = vertex
        pending[depth] = candidates
        used |= low
        depth += 1
        if depth == size:
            found.append(tuple(image))
            if limit is not None and len(found) >= limit:
                return found
            depth -= 1
            used ^= low
            continue

        candidates = label_bits.get(labels[depth], 0) & at_least[min_degrees[depth]] & ~used
        for position in back[depth]:
            candidates &= adj[image[position]]
