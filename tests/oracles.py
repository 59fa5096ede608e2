"""Reference implementations the product's kernels are checked against.

The product verifies with one engine, :class:`repro.isomorphism.VF2Matcher`.
These two are independent implementations of the same non-induced semantics
(subgraph monomorphism, exact vertex labels, query edge labels honoured),
kept as test oracles:

* :class:`UllmannMatcher` — the textbook matrix-refinement backtracking
  algorithm: a candidate assignment ``q → t`` survives only if every
  neighbour of ``q`` still has a candidate among the neighbours of ``t``;
* :class:`NetworkXMatcher` — a wrapper around networkx's ``GraphMatcher``
  that compares vertex labels and honours a query edge's label; the repo's
  one networkx oracle, which reads only the graphs' dicts.

:func:`to_networkx` converts a :class:`Graph` for both networkx users: that
matcher and the tests that check connectivity with ``networkx.is_connected``.

The product enumerates label paths with one iterative walk that counts
directed label sequences and canonicalises each distinct one once
(:func:`repro.features.paths.enumerate_paths`).  :func:`reference_enumerate_paths`
is the recursive enumerator it replaced, which canonicalises every path it
finds; the two must agree key for key and count for count
(``tests/test_path_oracle.py``).

The cache probe skips a screened candidate whose answer can no longer change
the pruning. :func:`reference_probe` confirms every screened candidate with
:class:`UllmannMatcher` instead; pruning with its hits must give the same
``S``, ``S'`` and ``C`` (``tests/test_probe_skip.py``).

A replacement round picks its victim once per change of the resident set and
applies only its net change to the store, and HD walks its PIN and PINC orders
to a threshold instead of scoring every resident.
:func:`reference_hd_ranking` is HD's three-sort ranking and
:func:`reference_update_cache_items` the round that re-ranks the residents for
every incoming entry; both must choose exactly what the product chooses
(``tests/test_policies.py``).
"""

from __future__ import annotations

import itertools
from collections import Counter
from collections.abc import Callable, Iterator, Sequence

from repro.cache.entry import CacheEntry
from repro.cache.policies.base import EvictionReport, ReplacementPolicy
from repro.cache.policies.hd import HDPolicy
from repro.cache.graph_cache import GraphCache
from repro.cache.store import CACHE_FEATURE_LENGTH, CacheStore
from repro.errors import BudgetExceededError
from repro.features.base import FeatureKey
from repro.features.paths import path_features
from repro.graph.graph import Graph, VertexId
from repro.isomorphism.base import MatchResult, SubgraphMatcher, trivially_impossible
from repro.query_model import Query


class UllmannMatcher(SubgraphMatcher):
    """Ullmann-style matcher with candidate-set refinement."""

    name = "ullmann"

    def __init__(self, node_budget: int | None = None) -> None:
        self.node_budget = node_budget

    def find_embedding(self, query: Graph, target: Graph) -> MatchResult:
        """Find one embedding of ``query`` into ``target`` (or report none)."""
        if query.num_vertices == 0:
            return MatchResult(found=True, mapping={})
        if trivially_impossible(query, target):
            return MatchResult(found=False)
        candidates = self._initial_candidates(query, target)
        if candidates is None:
            return MatchResult(found=False)
        order = sorted(query.vertices(), key=lambda v: len(candidates[v]))
        mapping = self._search(query, target, order, 0, candidates, {}, itertools.count(1))
        return MatchResult(found=mapping is not None, mapping=mapping)

    def find_all_embeddings(
        self, query: Graph, target: Graph, limit: int | None = None
    ) -> list[dict[VertexId, VertexId]]:
        """Enumerate (up to ``limit``) embeddings of ``query`` into ``target``."""
        if query.num_vertices == 0:
            return [{}]
        if trivially_impossible(query, target):
            return []
        candidates = self._initial_candidates(query, target)
        if candidates is None:
            return []
        order = sorted(query.vertices(), key=lambda v: len(candidates[v]))
        results: list[dict[VertexId, VertexId]] = []
        self._search(query, target, order, 0, candidates, {}, itertools.count(1), results, limit)
        return results

    def _initial_candidates(
        self, query: Graph, target: Graph
    ) -> dict[VertexId, set[VertexId]] | None:
        """Label/degree-compatible candidate sets, refined to a fixed point."""
        candidates: dict[VertexId, set[VertexId]] = {}
        for q_vertex in query.vertices():
            pool = {
                t_vertex
                for t_vertex in target.vertices()
                if target.label(t_vertex) == query.label(q_vertex)
                and target.degree(t_vertex) >= query.degree(q_vertex)
            }
            if not pool:
                return None
            candidates[q_vertex] = pool
        if not self._refine(query, target, candidates):
            return None
        return candidates

    def _refine(
        self, query: Graph, target: Graph, candidates: dict[VertexId, set[VertexId]]
    ) -> bool:
        """Ullmann refinement to a fixed point; False when a set empties."""
        changed = True
        while changed:
            changed = False
            for q_vertex in query.vertices():
                doomed: list[VertexId] = []
                for t_vertex in candidates[q_vertex]:
                    for q_neighbor in query.neighbors(q_vertex):
                        t_neighbors = target.neighbors(t_vertex)
                        if not candidates[q_neighbor] & t_neighbors:
                            doomed.append(t_vertex)
                            break
                if doomed:
                    candidates[q_vertex] -= set(doomed)
                    changed = True
                    if not candidates[q_vertex]:
                        return False
        return True

    def _search(
        self,
        query: Graph,
        target: Graph,
        order: list[VertexId],
        depth: int,
        candidates: dict[VertexId, set[VertexId]],
        mapping: dict[VertexId, VertexId],
        states: Iterator[int],
        results: list[dict[VertexId, VertexId]] | None = None,
        limit: int | None = None,
    ) -> dict[VertexId, VertexId] | None:
        if depth == len(order):
            if results is None:
                return dict(mapping)
            results.append(dict(mapping))
            return None
        q_vertex = order[depth]
        used = set(mapping.values())
        for t_vertex in sorted(candidates[q_vertex], key=repr):
            state = next(states)  # numbers the search states, for ``node_budget``
            if self.node_budget is not None and state > self.node_budget:
                raise BudgetExceededError(self.node_budget)
            if t_vertex in used:
                continue
            if not self._consistent(query, target, mapping, q_vertex, t_vertex):
                continue
            mapping[q_vertex] = t_vertex
            found = self._search(
                query, target, order, depth + 1, candidates, mapping, states, results, limit
            )
            if results is None and found is not None:
                return found
            del mapping[q_vertex]
            if results is not None and limit is not None and len(results) >= limit:
                return None
        return None

    def _consistent(
        self,
        query: Graph,
        target: Graph,
        mapping: dict[VertexId, VertexId],
        q_vertex: VertexId,
        t_vertex: VertexId,
    ) -> bool:
        for q_neighbor in query.neighbors(q_vertex):
            if q_neighbor in mapping:
                t_neighbor = mapping[q_neighbor]
                if not target.has_edge(t_vertex, t_neighbor):
                    return False
                q_edge_label = query.edge_label(q_vertex, q_neighbor)
                if q_edge_label is not None and target.edge_label(t_vertex, t_neighbor) != q_edge_label:
                    return False
        return True


def to_networkx(graph: Graph):
    """A :class:`networkx.Graph` with ``label`` node (and edge) attributes."""
    import networkx as nx

    nx_graph = nx.Graph()
    for vertex in graph.vertices():
        nx_graph.add_node(vertex, label=graph.label(vertex))
    for u, v in graph.edges():
        label = graph.edge_label(u, v)
        nx_graph.add_edge(u, v, **({} if label is None else {"label": label}))
    return nx_graph


def _too_big(query: Graph, target: Graph) -> bool:
    """More vertices or edges than the target: read off the graphs' dicts, so
    the networkx oracle never consults a compiled form."""
    return query.num_vertices > target.num_vertices or query.num_edges > target.num_edges


class NetworkXMatcher(SubgraphMatcher):
    """Subgraph monomorphism via networkx's GraphMatcher, with this repo's
    semantics: vertex labels must be equal, and a query edge label is
    honoured only when present."""

    name = "networkx"

    @staticmethod
    def _matcher(query: Graph, target: Graph):
        import networkx.algorithms.isomorphism as iso

        def edge_match(target_attrs, query_attrs):
            wanted = query_attrs.get("label")
            return wanted is None or target_attrs.get("label") == wanted

        return iso.GraphMatcher(
            to_networkx(target),
            to_networkx(query),
            node_match=iso.categorical_node_match("label", ""),
            edge_match=edge_match,
        )

    def find_embedding(self, query: Graph, target: Graph) -> MatchResult:
        """Find one embedding of ``query`` into ``target`` using networkx."""
        if query.num_vertices == 0:
            return MatchResult(found=True, mapping={})
        if _too_big(query, target):
            return MatchResult(found=False)
        matcher = self._matcher(query, target)
        # networkx's "monomorphism" is the paper's non-induced semantics
        found = matcher.subgraph_is_monomorphic()
        mapping: dict[VertexId, VertexId] | None = None
        if found:
            # networkx maps target -> query; invert to query -> target
            mapping = {q: t for t, q in matcher.mapping.items()}
        return MatchResult(found=found, mapping=mapping)

    def find_all_embeddings(
        self, query: Graph, target: Graph, limit: int | None = None
    ) -> list[dict[VertexId, VertexId]]:
        """Enumerate embeddings via networkx."""
        if query.num_vertices == 0:
            return [{}]
        if _too_big(query, target):
            return []
        results: list[dict[VertexId, VertexId]] = []
        for mapping in self._matcher(query, target).subgraph_monomorphisms_iter():
            results.append({q: t for t, q in mapping.items()})
            if limit is not None and len(results) >= limit:
                break
        return results


# --------------------------------------------------------------------------- #
# label paths
# --------------------------------------------------------------------------- #
def _canonical_path_key(labels: list[str]) -> tuple[str, ...]:
    """Canonical (direction-independent) key for a label path."""
    forward = tuple(labels)
    backward = tuple(reversed(labels))
    return forward if forward <= backward else backward


def reference_enumerate_paths(graph: Graph, max_length: int) -> Counter[FeatureKey]:
    """The multiset of canonical label-path keys with 0..max_length edges.

    Length-0 paths are single vertex labels, so even a one-vertex query has a
    non-empty feature multiset.  Enumeration is DFS with an on-path visited
    set (simple paths only); each undirected path is counted once.
    """
    features: Counter[FeatureKey] = Counter()
    for vertex in graph.vertices():
        features[(graph.label(vertex),)] += 1
        _extend(graph, max_length, [vertex], {vertex}, features)
    # every path of length >= 1 is discovered twice (once from each end);
    # halve those counts so the multiset is well defined
    normalised: Counter[FeatureKey] = Counter()
    for key, count in features.items():
        if len(key) == 1:
            normalised[key] = count
        else:
            normalised[key] = count // 2
    return normalised


def _extend(
    graph: Graph,
    max_length: int,
    path: list[VertexId],
    on_path: set[VertexId],
    features: Counter[FeatureKey],
) -> None:
    if len(path) - 1 >= max_length:
        return
    tail = path[-1]
    for neighbor in graph.neighbors(tail):
        if neighbor in on_path:
            continue
        path.append(neighbor)
        on_path.add(neighbor)
        labels = [graph.label(v) for v in path]
        features[_canonical_path_key(labels)] += 1
        _extend(graph, max_length, path, on_path, features)
        on_path.discard(neighbor)
        path.pop()


# --------------------------------------------------------------------------- #
# replacement: the victim references
# --------------------------------------------------------------------------- #
def reference_hd_ranking(policy: HDPolicy, entries: Sequence[CacheEntry], count: int) -> list[int]:
    """HD's positions of the ``count`` least useful entries, by three sorts."""
    if count <= 0 or not entries:
        return []
    n = len(entries)
    by_pin = sorted(range(n), key=lambda p: (entries[p].stats.tests_saved, entries[p].entry_id))
    by_pinc = sorted(
        range(n), key=lambda p: (entries[p].stats.seconds_saved, entries[p].entry_id)
    )
    pin_rank = {position: rank for rank, position in enumerate(by_pin)}
    pinc_rank = {position: rank for rank, position in enumerate(by_pinc)}
    max_clock = max((entry.stats.last_used_clock for entry in entries), default=0) or 1

    def coalesced(position: int) -> float:
        recency = entries[position].stats.last_used_clock / max_clock
        return pin_rank[position] + pinc_rank[position] + policy.recency_weight * recency

    ranked = sorted(
        range(n),
        key=lambda position: (coalesced(position), entries[position].entry_id),
    )
    return ranked[: min(count, n)]


def reference_update_cache_items(
    policy: ReplacementPolicy,
    store: CacheStore,
    incoming: Sequence[CacheEntry],
    capacity: int,
    rank: Callable[[Sequence[CacheEntry], int], list[int]] | None = None,
) -> EvictionReport:
    """A replacement round that ranks the residents afresh for every incoming
    entry and admits and evicts through the store one entry at a time
    (``rank`` defaults to the policy's own ``get_replaced_content``)."""
    rank = rank or policy.get_replaced_content
    report = EvictionReport(capacity=capacity)
    for entry in incoming:
        if entry.entry_id in store:
            continue
        if len(store) < capacity:
            store.add(entry)
            report.admitted.append(entry.entry_id)
            continue
        residents = store.entries()
        victim_positions = rank(residents, 1)
        if not victim_positions:
            continue
        victim = residents[victim_positions[0]]
        incoming_utility = policy.utility(entry)
        victim_utility = policy.utility(victim)
        if incoming_utility > victim_utility or (
            incoming_utility == victim_utility and entry.admitted_clock >= victim.admitted_clock
        ):
            store.remove(victim.entry_id)
            store.add(entry)
            report.evicted.append(victim.entry_id)
            report.admitted.append(entry.entry_id)
    return report


# --------------------------------------------------------------------------- #
# the cache probe: every screened candidate confirmed
# --------------------------------------------------------------------------- #
def reference_probe(cache: GraphCache, query: Query) -> tuple[list[CacheEntry], list[CacheEntry]]:
    """The sub-case and super-case hits among *all* of ``cache``'s screened
    candidates for ``query``, each confirmed by its own Ullmann test."""
    graph, matcher = query.graph, UllmannMatcher()
    features = path_features(graph, CACHE_FEATURE_LENGTH)
    subs = cache.store.sub_case_candidates(graph, features, query.query_type)
    supers = cache.store.super_case_candidates(graph, features, query.query_type)
    return ([entry for entry in subs if matcher.is_subgraph(graph, entry.graph)],
            [entry for entry in supers if matcher.is_subgraph(entry.graph, graph)])
