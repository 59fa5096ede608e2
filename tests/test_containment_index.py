"""The containment index: one structure, checked against the definitions.

Three groups:

(a) property — for random multiset families and random interleavings of
    ``add`` / ``remove`` / re-``add``, ``containing`` and ``contained_in``
    equal the brute-force :meth:`FeatureExtractor.multiset_contains` answer
    and ``equal_to`` brute-force multiset equality, group by group, on an
    index sealed at random steps as on one never sealed (a seal must not
    outlive a change: a member re-added into a freed slot is no holder of
    what the slot's old member held);
(b) dataset side — for every indexed Method M, ``filter_candidates`` *is* the
    brute-force definition over its feature family (multiset containment for
    ``graphgrep-sx``, hashed-position containment with the hash
    ``ct-index`` has always used), for subgraph and supergraph queries; and
    every registered method gives a renumbered, reordered copy of a query
    the same candidate set (what lets an exact hit credit the ``|C_M|`` its
    entry recorded);
(c) cache side — the entries the store screens for a lookup (exact, sub
    and super candidates) are those of a linear scan written here, in the
    same order, never across query types, and the store's index follows its
    entries without a rescan; the store's cheap containment screen rejects
    what its three conditions reject; and an exact candidate is confirmed
    exactly when networkx finds a labelled isomorphism.
"""

from __future__ import annotations

import hashlib
import random
from collections import Counter

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.cache import CacheEntry, GraphCache
from repro.cache.store import CACHE_FEATURE_LENGTH, CacheStore
from repro.errors import IndexError_
from repro.features import (
    CompositeExtractor,
    CycleFeatureExtractor,
    FeatureExtractor,
    PathFeatureExtractor,
    StarFeatureExtractor,
    path_features,
)
from repro.cache.store import _may_contain
from repro.graph import Graph, graph_from_edges, molecule_dataset, molecule_graph, path_graph
from repro.graph.operations import extend_graph, random_connected_subgraph
from repro.index import ContainmentIndex
from repro.methods import available_methods, make_method
from repro.query_model import Query, QueryType
from repro.runtime import GCConfig, GraphCacheSystem
from tests.oracles import to_networkx

RELAXED = settings(max_examples=80, deadline=None,
                   suppress_health_check=[HealthCheck.too_slow])

contains = FeatureExtractor.multiset_contains


# ---------------------------------------------------------------------- #
# (a) the structure against the definition
# ---------------------------------------------------------------------- #
KEYS = [("A",), ("B",), ("A", "A"), ("A", "B"), ("B", "B"), ("A", "B", "A")]
#: ``("Z",)`` is a key no member ever has; counts up to 6 exceed every level.
multisets = st.dictionaries(st.sampled_from(KEYS), st.integers(1, 4), max_size=len(KEYS))
queries = st.dictionaries(st.sampled_from(KEYS + [("Z",)]), st.integers(1, 6), max_size=4)
#: the last flag seals the sealed index after the step (the next step's
#: add or remove then runs on a sealed index)
steps = st.lists(
    st.tuples(st.integers(0, 7), multisets, st.sampled_from(["sub", "super"]), queries,
              st.booleans()),
    max_size=25,
)


class TestAgainstBruteForce:
    @RELAXED
    @given(steps=steps)
    def test_both_questions_under_add_remove_readd(self, steps):
        plain, sealed = ContainmentIndex(), ContainmentIndex()
        live: dict[int, tuple[dict, str]] = {}
        for member, features, group, query, seal in steps:
            for index in (plain, sealed):
                if member in live:  # a second draw of a member removes it ...
                    index.remove(member)
                else:               # ... and a third re-adds it, into a freed slot
                    index.add(member, features, group)
            if member in live:
                del live[member]
            else:
                live[member] = (features, group)
            if seal:
                sealed.seal()
            for index in (plain, sealed):
                assert index.members() == list(live)
                assert len(index) == len(live)
                for asked in ("sub", "super", "nobody"):
                    within = {m: f for m, (f, g) in live.items() if g == asked}
                    for question in (query, {}):
                        assert index.containing(question, asked) == {
                            m for m, f in within.items() if contains(f, question)}
                        assert index.contained_in(question, asked) == {
                            m for m, f in within.items() if contains(question, f)}
                        assert index.equal_to(question, asked) == {
                            m for m, f in within.items() if f == question}

    def test_a_member_readded_into_a_sealed_slot_is_not_dismissed(self):
        index = ContainmentIndex()
        for member in range(20):
            index.add(member, {("A",): 1, ("B",): 1 + member % 2})
        index.seal()  # both keys are common: every member holds them
        assert index.contained_in({("A",): 1, ("B",): 1}) == set(range(0, 20, 2))
        assert index.contained_in({("B",): 2}) == set()
        index.remove(4)
        index.add("new", {("B",): 1})  # into slot 4, which held ("A",)
        assert index.contained_in({("B",): 1}) == {"new"}
        index.seal()
        assert index.contained_in({("B",): 1}) == {"new"}
        assert index.contained_in({("A",): 1, ("B",): 1}) == (set(range(0, 20, 2)) - {4}) | {"new"}

    def test_empty_member_and_empty_query(self):
        index = ContainmentIndex()
        index.add("empty", {})
        index.add("full", {("A",): 2})
        assert index.containing({}) == {"empty", "full"}
        assert index.contained_in({}) == {"empty"}
        assert index.contained_in({("A",): 1}) == {"empty"}
        assert index.contained_in({("A",): 2, ("B",): 1}) == {"empty", "full"}
        assert index.containing({("A",): 3}) == set()
        assert index.equal_to({}) == {"empty"}
        assert index.equal_to({("A",): 2}) == {"full"}
        assert index.equal_to({("A",): 1}) == index.equal_to({("A",): 3}) == set()
        assert index.equal_to({("A",): 2, ("B",): 1}) == set()

    def test_slots_are_reused_and_nothing_of_the_old_member_remains(self):
        index = ContainmentIndex()
        index.add("old", {("A",): 3, ("B",): 1})
        index.add("other", {("A",): 1})
        held = index.memory_bytes()
        index.remove("old")
        index.add("new", {("B", "B"): 1})
        assert index.containing({("A",): 1}) == {"other"}
        assert index.containing({("B",): 1}) == set()
        assert index.contained_in({("A",): 5, ("B",): 5}) == {"other"}
        assert index.contained_in({("B", "B"): 1}) == {"new"}
        assert index.members() == ["other", "new"]
        # same number of slots; the higher levels of ("A",) were trimmed
        assert index.memory_bytes() <= held + 200

    def test_memory_is_measured_and_flat_under_churn(self):
        index = ContainmentIndex()
        index.add(0, {("A",): 1})
        small = index.memory_bytes()

        def fill():
            for member in range(1, 200):
                index.add(member, {("A",): member % 7 + 1, ("B", member % 5): 2})

        fill()
        grown = index.memory_bytes()
        assert grown > 4 * small
        for _ in range(5):  # slots, keys and levels are reused, not leaked
            for member in range(1, 200):
                index.remove(member)
            assert index.containing({("A",): 1}) == {0}
            fill()
        assert index.memory_bytes() <= grown * 1.1

    def test_duplicate_add_and_unknown_remove_are_rejected(self):
        index = ContainmentIndex()
        index.add(1, {("A",): 1})
        with pytest.raises(IndexError_):
            index.add(1, {("B",): 1})
        with pytest.raises(IndexError_):
            index.remove(2)


# ---------------------------------------------------------------------- #
# (b) every indexed Method M filters by the definition
# ---------------------------------------------------------------------- #
def _hashed(features: Counter, num_bits: int) -> set[int]:
    """Bit positions of a feature set — the hash ct-index shipped with."""
    return {
        int.from_bytes(hashlib.blake2b(repr(key).encode("utf-8"), digest_size=8).digest(),
                       "big") % num_bits
        for key in features
    }


def _path_oracle(length: int):
    extractor = PathFeatureExtractor(max_length=length)
    return extractor.extract, contains


def _ct_oracle(num_bits: int):
    extractor = CompositeExtractor([StarFeatureExtractor(max_leaves=3),
                                    CycleFeatureExtractor(max_length=6)])
    return (lambda graph: _hashed(extractor.extract(graph), num_bits),
            lambda container, contained: contained <= container)


METHODS = [
    ("graphgrep-sx", {"feature_size": 1}, _path_oracle(1)),
    ("graphgrep-sx", {"feature_size": 2}, _path_oracle(2)),
    ("graphgrep-sx", {"feature_size": 3}, _path_oracle(3)),
    ("ct-index", {"num_bits": 2048}, _ct_oracle(2048)),
    ("ct-index", {"num_bits": 64}, _ct_oracle(64)),
]


@pytest.mark.parametrize("name,options,oracle", METHODS,
                         ids=[f"{n}-{next(iter(o.values()))}" for n, o, _ in METHODS])
@pytest.mark.parametrize("seed", [11, 12])
def test_filter_candidates_equal_the_definition(name, options, oracle, seed):
    dataset = molecule_dataset(40, min_vertices=5, max_vertices=18, rng=seed)
    labels = sorted({label for graph in dataset for label in graph.label_set()})
    method = make_method(name, **options)
    method.build(dataset)
    describe, holds = oracle
    described = {graph.graph_id: describe(graph) for graph in dataset}
    rng = random.Random(seed)
    for _ in range(12):
        source = dataset[rng.randrange(len(dataset))]
        sub = random_connected_subgraph(source, rng.randint(2, 6), rng=rng)
        assert method.filter_candidates(sub, "subgraph") == {
            graph_id for graph_id, held in described.items() if holds(held, describe(sub))}
        sup = extend_graph(source, rng.randint(1, 5), labels=labels, rng=rng)
        assert method.filter_candidates(sup, "supergraph") == {
            graph_id for graph_id, held in described.items() if holds(describe(sup), held)}


def renumbered(graph: Graph, rng: random.Random) -> Graph:
    """An isomorphic copy: fresh vertex ids, vertices and edges added in a
    shuffled order, each edge with its endpoints in a random order."""
    order = graph.vertices()
    rng.shuffle(order)
    names = dict(zip(order, rng.sample(range(10 * len(order) + 10), len(order))))
    copy = Graph()
    for vertex in order:
        copy.add_vertex(names[vertex], graph.label(vertex))
    edges = list(graph.edges())
    rng.shuffle(edges)
    for u, v in edges:
        ends = [names[u], names[v]]
        rng.shuffle(ends)
        copy.add_edge(*ends, graph.edge_label(u, v))
    return copy


@pytest.fixture(scope="module")
def built_methods():
    dataset = molecule_dataset(40, min_vertices=5, max_vertices=18, rng=13)
    methods = [make_method(name) for name in available_methods()]
    for method in methods:
        method.build(dataset)
    return dataset, methods


@RELAXED
@given(seed=st.integers(0, 2**32), query_type=st.sampled_from(list(QueryType)))
def test_isomorphic_queries_get_equal_candidate_sets(built_methods, seed, query_type):
    dataset, methods = built_methods
    assert {method.name for method in methods} == {"graphgrep-sx", "ct-index", "direct-si"}
    rng = random.Random(seed)
    source = dataset[rng.randrange(len(dataset))]
    if query_type is QueryType.SUBGRAPH:
        query = random_connected_subgraph(source, rng.randint(1, source.num_vertices), rng=rng)
    else:
        query = extend_graph(source, rng.randint(0, 4), labels=["C", "N", "O"], rng=rng)
    copy = renumbered(query, rng)
    for method in methods:
        assert (method.filter_candidates(copy, query_type)
                == method.filter_candidates(query, query_type)), method.name


# ---------------------------------------------------------------------- #
# (c) the cache's screen
# ---------------------------------------------------------------------- #
def _entry(graph, query_type) -> CacheEntry:
    return CacheEntry(graph=graph, query_type=query_type, answer=frozenset())


@pytest.fixture()
def mixed_cache():
    """A warm cache holding nested patterns of both query types, interleaved."""
    rng = random.Random(21)
    cache = GraphCache(capacity=40, policy="LRU", window_size=4)
    base = molecule_graph(18, rng=rng)
    entries = []
    for position in range(24):
        pattern = random_connected_subgraph(base, rng.randint(3, 14), rng=rng)
        query_type = QueryType.SUBGRAPH if position % 3 else QueryType.SUPERGRAPH
        entries.append(_entry(pattern, query_type))
    cache.warm(entries)
    return cache, base, rng


def _linear_scan(cache: GraphCache, graph, query_type, direction: str) -> list[CacheEntry]:
    features = PathFeatureExtractor(CACHE_FEATURE_LENGTH).extract(graph)  # enumerated afresh
    screened = []
    for entry in cache.entries():
        if entry.query_type is not query_type:
            continue
        if direction == "exact":
            fits = entry.features == features
        elif direction == "sub":
            fits = contains(entry.features, features) and _may_contain(graph, entry.graph)
        else:
            fits = contains(features, entry.features) and _may_contain(entry.graph, graph)
        if fits:
            screened.append(entry)
    return screened


K33_EDGES = [(u, v) for u in range(3) for v in range(3, 6)]
PRISM_EDGES = [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (0, 3), (1, 4), (2, 5)]


def _all_carbon(edges, padding: int = 0):
    """The 6-vertex graph of ``edges``, every label C, with a path of
    ``padding`` more vertices hanging off vertex 0."""
    graph = graph_from_edges(edges, labels={vertex: "C" for vertex in range(6)})
    for vertex in range(6, 6 + padding):
        graph.add_vertex(vertex, "C")
        graph.add_edge(vertex - 1 if vertex > 6 else 0, vertex)
    return graph


def _ladder(rungs: int, twisted: bool):
    """The circular (or, twisted, Möbius) ladder on ``2 * rungs`` vertices, all
    labels C: both are 3-regular, so their label-path multisets are equal."""
    size = 2 * rungs
    if twisted:
        edges = [(i, (i + 1) % size) for i in range(size)] + [(i, i + rungs) for i in range(rungs)]
    else:
        edges = ([(i, (i + 1) % rungs) for i in range(rungs)]
                 + [(rungs + i, rungs + (i + 1) % rungs) for i in range(rungs)]
                 + [(i, rungs + i) for i in range(rungs)])
    return graph_from_edges(edges, labels={vertex: "C" for vertex in range(size)})


def _cycles(*lengths: int):
    """Disjoint all-C cycles: any split of one length has equal multisets."""
    edges, offset = [], 0
    for length in lengths:
        edges += [(offset + i, offset + (i + 1) % length) for i in range(length)]
        offset += length
    return graph_from_edges(edges, labels={vertex: "C" for vertex in range(offset)})


def _and_renumbered(graph: Graph, rng: random.Random) -> tuple[Graph, Graph]:
    return graph, renumbered(graph, rng)


def _and_one_edge_labelled(graph: Graph) -> tuple[Graph, Graph]:
    """``graph`` and a copy with one edge labelled: label paths read vertex
    labels only, so the two have equal multisets."""
    copy = graph.copy()
    u, v = next(iter(copy.edges()))
    copy.remove_edge(u, v)
    copy.add_edge(u, v, "double")
    return graph, copy


def _bond_labelled_and_unlabelled(graph: Graph, rng: random.Random) -> tuple[Graph, Graph]:
    """A copy of edge-unlabelled ``graph`` with a bond order ("1" or "2") on
    every edge, as an SDF file gives it, and ``graph`` itself."""
    labelled = graph.copy()
    for u, v in graph.edges():
        labelled.add_edge(u, v, rng.choice("12"))
    return labelled, graph


#: Pairs with equal length-2 label-path multisets: the exact-hit candidates
#: the kernel must decide.  Several are highly symmetric and above 24 vertices.
EXACT_PAIRS = {
    "molecule-renumbered": lambda rng: _and_renumbered(molecule_graph(14, rng=rng), rng),
    "molecule-edge-label": lambda rng: _and_one_edge_labelled(molecule_graph(12, rng=rng)),
    "k33-prism": lambda rng: (_ladder(3, True), _ladder(3, False)),
    "ladder-26-renumbered": lambda rng: _and_renumbered(_ladder(13, False), rng),
    "moebius-26-renumbered": lambda rng: _and_renumbered(_ladder(13, True), rng),
    "ladder-moebius-26": lambda rng: (_ladder(13, False), _ladder(13, True)),
    "moebius-ladder-26": lambda rng: (_ladder(13, True), _ladder(13, False)),
    "cycle-30-two-15": lambda rng: (_cycles(30), _cycles(15, 15)),
    "two-15-cycle-30": lambda rng: (_cycles(15, 15), _cycles(30)),
    "two-13-renumbered": lambda rng: _and_renumbered(_cycles(13, 13), rng),
    "ladder-26-edge-label": lambda rng: _and_one_edge_labelled(_ladder(13, False)),
    # the resident is labelled, the query not: the kernel reads the query's
    # unlabelled edges as wildcards, so it embeds either way round
    "molecule-edge-label-dropped": lambda rng: _and_one_edge_labelled(molecule_graph(12, rng=rng))[::-1],
    "ladder-26-edge-label-dropped": lambda rng: _and_one_edge_labelled(_ladder(13, False))[::-1],
    "molecule-bond-orders-dropped": lambda rng: _bond_labelled_and_unlabelled(
        molecule_graph(12, rng=rng), rng),
}


class TestContainmentScreens:
    """``_may_contain``: sizes, then per-label degrees (labels at degree 0)."""

    def test_subgraph_passes_all_screens(self):
        source = molecule_graph(20, rng=8)
        sub = random_connected_subgraph(source, 8, rng=9)
        assert _may_contain(sub, source)

    def test_size_screen_rejects_larger_query(self):
        small = molecule_graph(5, rng=10)
        big = molecule_graph(10, rng=11)
        assert not _may_contain(big, small)

    def test_label_screen_rejects_missing_label(self, triangle):
        query = path_graph(["C", "S"])
        assert not _may_contain(query, triangle)

    def test_degree_screen_rejects_high_degree_query(self):
        hub = Graph()
        hub.add_vertex(0, "C")
        for leaf in range(1, 5):
            hub.add_vertex(leaf, "C")
            hub.add_edge(0, leaf)
        target = path_graph(["C"] * 5)  # as many vertices and edges as the hub
        assert not _may_contain(hub, target)


class TestCacheScreen:
    def test_screened_entries_equal_a_linear_scan(self, mixed_cache):
        cache, base, rng = mixed_cache
        store = cache.store
        seen_exact = seen_sub = seen_super = 0
        for _ in range(40):
            graph = random_connected_subgraph(base, rng.randint(4, 12), rng=rng)
            features = path_features(graph, CACHE_FEATURE_LENGTH)
            for query_type in QueryType:
                exact = store.exact_candidates(features, query_type)
                sub = store.sub_case_candidates(graph, features, query_type)
                sup = store.super_case_candidates(graph, features, query_type)
                assert exact == _linear_scan(cache, graph, query_type, "exact")
                assert sub == _linear_scan(cache, graph, query_type, "sub")
                assert sup == _linear_scan(cache, graph, query_type, "super")
                assert all(entry.query_type is query_type for entry in exact + sub + sup)
                lookup = cache.lookup(Query(graph=graph, query_type=query_type))
                if lookup.exact_entry is None:
                    assert lookup.screened_sub_candidates == len(sub)
                    assert lookup.screened_super_candidates == len(sup)
                seen_exact += len(exact)
                seen_sub += len(sub)
                seen_super += len(sup)
        assert seen_exact and seen_sub and seen_super  # the comparison was not vacuous

    def test_exact_hit_never_crosses_query_types_and_prefers_the_oldest(self):
        cache = GraphCache(capacity=10, policy="LRU", window_size=1)
        pattern = molecule_graph(7, rng=5)
        as_super = _entry(pattern.copy(), QueryType.SUPERGRAPH)
        first = _entry(pattern.copy(), QueryType.SUBGRAPH)
        second = _entry(pattern.copy(), QueryType.SUBGRAPH)
        cache.warm([as_super, first, second])
        assert cache.lookup(Query(pattern, QueryType.SUBGRAPH)).exact_entry is first
        assert cache.lookup(Query(pattern, QueryType.SUPERGRAPH)).exact_entry is as_super
        cache.store.remove(first.entry_id)
        assert cache.lookup(Query(pattern, QueryType.SUBGRAPH)).exact_entry is second

    def test_index_follows_the_store_through_churn(self):
        rng = random.Random(31)
        cache = GraphCache(capacity=6, policy="LRU", window_size=4)
        for clock in range(60):
            cache.tick()
            graph = molecule_graph(rng.randint(4, 12), rng=rng)
            query = Query(graph, rng.choice(list(QueryType)))
            cache.offer(query, answer={clock}, observed_test_cost=0.0)
            resident = [entry.entry_id for entry in cache.entries()]
            assert cache.store._index.members() == resident
        reports = cache.eviction_reports()
        assert sum(len(report.evicted) for report in reports) > 40
        assert len(cache) == 6

    def test_lookup_and_flush_scan_neither_store_nor_index(self, mixed_cache, monkeypatch):
        cache, base, rng = mixed_cache

        def scanned(*_args, **_kwargs):
            raise AssertionError("a per-lookup / per-flush rescan is back")

        monkeypatch.setattr(CacheStore, "__iter__", scanned)
        monkeypatch.setattr(CacheStore, "entries", scanned)
        for clock in range(9):
            graph = random_connected_subgraph(base, rng.randint(4, 9), rng=rng)
            query = Query(graph, QueryType.SUBGRAPH)
            cache.lookup(query)
            cache.offer(query, answer=set(), observed_test_cost=0.0)
        cache.flush_window()
        assert len(cache.store._index) == len(cache) > 24

    @pytest.mark.parametrize("name", sorted(EXACT_PAIRS))
    def test_exact_confirmation_is_labelled_isomorphism(self, name):
        """One kernel test per exact candidate decides what networkx decides:
        equal multisets mean equal sizes, where an embedding is a bijection."""
        import networkx as nx

        resident_graph, query_graph = EXACT_PAIRS[name](random.Random(name))
        assert (path_features(resident_graph, CACHE_FEATURE_LENGTH)
                == path_features(query_graph, CACHE_FEATURE_LENGTH))
        isomorphic = nx.is_isomorphic(
            to_networkx(resident_graph), to_networkx(query_graph),
            node_match=lambda a, b: a["label"] == b["label"],
            edge_match=lambda a, b: a.get("label") == b.get("label"))
        assert isomorphic is name.endswith("renumbered")

        cache = GraphCache(capacity=2, policy="LRU", semantic_hits=False)
        resident = _entry(resident_graph, QueryType.SUBGRAPH)
        cache.warm([resident])
        lookup = cache.lookup(Query(query_graph, QueryType.SUBGRAPH))
        assert (lookup.exact_entry is resident) is isomorphic
        assert lookup.probe_tests == 1

    @pytest.mark.parametrize("padding", [0, 20])
    def test_equal_multisets_of_non_isomorphic_patterns_are_no_exact_hit(self, padding):
        """K3,3 and the triangular prism, all labels C, have equal label-path
        multisets (6 / 9 / 18 paths of 0 / 1 / 2 edges) but are not
        isomorphic: one kernel test rejects the candidate, padded past 24
        vertices or not."""
        k33, prism = _all_carbon(K33_EDGES, padding), _all_carbon(PRISM_EDGES, padding)
        features = path_features(prism, CACHE_FEATURE_LENGTH)
        assert path_features(k33, CACHE_FEATURE_LENGTH) == features

        exact_only = GraphCache(capacity=4, policy="LRU", semantic_hits=False)
        resident = _entry(k33.copy(), QueryType.SUBGRAPH)
        exact_only.warm([resident])
        assert exact_only.store.exact_candidates(features, QueryType.SUBGRAPH) == [resident]
        lookup = exact_only.lookup(Query(prism.copy(), QueryType.SUBGRAPH))
        assert lookup.exact_entry is None
        assert lookup.probe_tests == 1

        dataset = ([k33.copy(), prism.copy()]
                   + molecule_dataset(10, min_vertices=6, max_vertices=14, rng=padding))
        for position, graph in enumerate(dataset):
            graph.graph_id = position
        answers = []
        for enabled in (True, False):
            config = GCConfig(cache_enabled=enabled, cache_capacity=4, window_size=1)
            with GraphCacheSystem(dataset, config) as system:
                system.run_query(Query(k33.copy(), QueryType.SUBGRAPH))
                report = system.run_query(Query(prism.copy(), QueryType.SUBGRAPH))
            assert report.exact_hit_entry is None
            answers.append(set(report.answer))
        assert answers[0] == answers[1] and 1 in answers[0] and 0 not in answers[0]
