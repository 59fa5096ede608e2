"""Compiled graphs: the bitset form every sub-iso test runs on.

A :class:`~repro.graph.graph.Graph` is a dict-of-sets that is convenient to
build and mutate; a sub-iso test wants the opposite — a frozen, densely
numbered structure whose set operations are single integer instructions.
:class:`CompiledGraph` is that structure: vertices are renumbered ``0..n-1``
in insertion order and every vertex set (a neighbourhood, "all vertices
labelled C", "all vertices of degree ≥ 3") is one Python ``int`` used as a
bitset, so intersecting candidate sets is ``&`` and counting is
``int.bit_count()`` regardless of how many vertices the graph has.

The compiled form is derived data.  ``Graph.compiled()`` builds it on first
use and every ``Graph`` mutator drops it; it is never copied, pickled or
serialised.  It is immutable apart from its memo slots — everything else the
system derives from a graph used as a *pattern*: the match plan and the
label-path features.  Each is filled by one attribute
store (the label paths: one item store per length) of a finished value that
no reader mutates, so threads sharing a graph can at worst compute the same
value twice.

On the *pattern* side of a test the compiled form also carries a
:class:`MatchPlan`: the order in which the pattern's vertices are placed and,
per step, everything the match kernel (``repro.isomorphism.vf2``) needs to
compute that step's whole candidate set with a handful of ``&``.  The plan
depends on the pattern alone — it is computed once and serves every target.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Hashable, Mapping

Label = str


class CompiledGraph:
    """Immutable bitset view of one graph (see the module docstring).

    Attributes
    ----------
    adj_bits:
        ``adj_bits[i]`` is the neighbourhood of dense vertex ``i``.
    label_bits:
        label → the vertices carrying it.
    degree_at_least:
        ``degree_at_least[d]`` is the set of vertices with degree ≥ ``d``,
        for ``d`` in ``0..max_degree`` (so entry 0 is "every vertex").
    edge_labels:
        ``(i, j)`` with ``i < j`` → edge label, or ``None`` when the graph has
        no labelled edge.
    paths:
        ``max_length → multiset`` memo owned by ``repro.features.paths``:
        the label paths enumerated at the longest length asked for so far
        and the restrictions derived from them.
    """

    __slots__ = (
        "adj_bits", "label_bits", "degree_at_least", "edge_labels",
        "paths", "_plan",
    )

    def __init__(
        self,
        labels: Mapping[Hashable, Label],
        adjacency: Mapping[Hashable, set],
        edge_labels: Mapping[tuple, Label],
    ) -> None:
        index = {vertex: position for position, vertex in enumerate(labels)}
        adj_bits = []
        label_bits: dict[Label, int] = {}
        by_degree = [0]
        for position, (vertex, label) in enumerate(labels.items()):
            bit = 1 << position
            neighbors = adjacency[vertex]
            bits = 0
            for neighbor in neighbors:
                bits |= 1 << index[neighbor]
            adj_bits.append(bits)
            label_bits[label] = label_bits.get(label, 0) | bit
            degree = len(neighbors)
            if degree >= len(by_degree):
                by_degree.extend([0] * (degree + 1 - len(by_degree)))
            by_degree[degree] |= bit
        for degree in range(len(by_degree) - 2, -1, -1):
            by_degree[degree] |= by_degree[degree + 1]
        self.adj_bits = tuple(adj_bits)
        self.label_bits = label_bits
        self.degree_at_least = tuple(by_degree)
        self.edge_labels = None
        if edge_labels:
            self.edge_labels = {
                _dense_edge(index[u], index[v]): label for (u, v), label in edge_labels.items()
            }
        self.paths: dict[int, Counter] | None = None
        self._plan: MatchPlan | None = None

    # ------------------------------------------------------------------ #
    # invariants (necessary conditions for "self embeds into host")
    # ------------------------------------------------------------------ #
    @property
    def max_degree(self) -> int:
        """Largest vertex degree (0 for the empty graph)."""
        return len(self.degree_at_least) - 1

    def labels_fit(self, host: "CompiledGraph") -> bool:
        """Does ``host`` carry every label at least as often as this graph?"""
        host_bits = host.label_bits
        for label, bits in self.label_bits.items():
            if host_bits.get(label, 0).bit_count() < bits.bit_count():
                return False
        return True

    def degree_profile_fits(self, host: "CompiledGraph") -> bool:
        """Per label, can this graph's vertices be assigned distinct host
        vertices of at least their degree?

        Sorting both degree lists and comparing them position by position is
        the same as asking, for every degree ``d``, that the host has at least
        as many vertices of that label with degree ≥ ``d`` — which is two
        ``&`` and two ``bit_count()`` per (label, degree).
        """
        own_degrees, host_degrees = self.degree_at_least, host.degree_at_least
        if len(own_degrees) > len(host_degrees):
            return False
        host_bits = host.label_bits
        for label, bits in self.label_bits.items():
            available = host_bits.get(label, 0)
            for degree, at_least in enumerate(own_degrees):
                wanted = bits & at_least
                if not wanted:
                    break
                if (available & host_degrees[degree]).bit_count() < wanted.bit_count():
                    return False
        return True

    # ------------------------------------------------------------------ #
    # pattern side
    # ------------------------------------------------------------------ #
    def plan(self) -> "MatchPlan":
        """The (memoised) match plan for using this graph as a pattern."""
        if self._plan is None:
            self._plan = MatchPlan(self)
        return self._plan


def _dense_edge(a: int, b: int) -> tuple[int, int]:
    return (a, b) if a < b else (b, a)


class MatchPlan:
    """Target-independent search plan for one pattern graph.

    The vertices are ordered rarest label (within the pattern) and highest
    degree first, then greedily by the number of already-ordered neighbours —
    a connected expansion order, so all but the first vertex of a component
    pick their candidates from a placed neighbour's adjacency.  Everything is
    stored per *position* in that order, as parallel tuples:

    ``order``
        the pattern's dense vertex placed at each position;
    ``labels`` / ``min_degrees``
        what a candidate target vertex must carry;
    ``back``
        positions of the already-placed pattern neighbours (the candidate
        must be adjacent to each of their images);
    ``forward_needs``
        ``(label, count)`` of the not-yet-placed neighbours — the one-step
        look-ahead: a candidate needs that many free neighbours per label;
    ``back_edge_labels``
        ``(position, edge label)`` for labelled pattern edges into placed
        vertices; ``None`` when the pattern has no labelled edge at all.
    """

    __slots__ = (
        "order", "labels", "min_degrees", "back", "forward_needs",
        "back_edge_labels",
    )

    def __init__(self, pattern: CompiledGraph) -> None:
        adj = pattern.adj_bits
        label_of: dict[int, Label] = {}
        rarity: dict[int, int] = {}
        for label, bits in pattern.label_bits.items():
            count = bits.bit_count()
            for vertex in _set_bits(bits):
                label_of[vertex] = label
                rarity[vertex] = count

        order: list[int] = []
        placed = 0
        remaining = list(range(len(adj)))
        while remaining:
            chosen = min(
                remaining,
                key=lambda v: (
                    -(adj[v] & placed).bit_count(), rarity[v], -adj[v].bit_count(), v,
                ),
            )
            remaining.remove(chosen)
            order.append(chosen)
            placed |= 1 << chosen
        position_of = {vertex: position for position, vertex in enumerate(order)}

        back, forward_needs, back_edge_labels = [], [], []
        edge_labels = pattern.edge_labels
        for position, vertex in enumerate(order):
            earlier, later = [], {}
            for neighbor in _set_bits(adj[vertex]):
                if position_of[neighbor] < position:
                    earlier.append(position_of[neighbor])
                else:
                    label = label_of[neighbor]
                    later[label] = later.get(label, 0) + 1
            earlier.sort()
            back.append(tuple(earlier))
            forward_needs.append(tuple(later.items()))
            if edge_labels is not None:
                back_edge_labels.append(tuple(
                    (before, edge_labels[_dense_edge(vertex, order[before])])
                    for before in earlier
                    if _dense_edge(vertex, order[before]) in edge_labels
                ))

        self.order = tuple(order)
        self.labels = tuple(label_of[vertex] for vertex in order)
        self.min_degrees = tuple(adj[vertex].bit_count() for vertex in order)
        self.back = tuple(back)
        self.forward_needs = tuple(forward_needs)
        self.back_edge_labels = tuple(back_edge_labels) if edge_labels is not None else None


def _set_bits(bits: int):
    """Yield the positions of the set bits, lowest first."""
    while bits:
        low = bits & -bits
        yield low.bit_length() - 1
        bits ^= low
