"""The containment index: one structure, checked against the definitions.

Three groups:

(a) property — for random multiset families and random interleavings of
    ``add`` / ``remove`` / re-``add``, ``containing`` and ``contained_in``
    equal the brute-force :meth:`FeatureExtractor.multiset_contains` answer,
    group by group;
(b) dataset side — for every indexed Method M, ``filter_candidates`` *is* the
    brute-force definition over its feature family (multiset containment for
    ``graphgrep-sx``, hashed-position containment with the hash
    ``ct-index`` has always used), for subgraph and supergraph queries;
(c) cache side — the entries screened for a lookup are those of a linear
    scan written here, in the same order, never across query types, and the
    cache follows its store without scanning the index or the store.
"""

from __future__ import annotations

import hashlib
import random
from collections import Counter

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.cache import CacheEntry, GraphCache
from repro.cache.query_index import CACHE_FEATURE_LENGTH
from repro.cache.store import CacheStore
from repro.errors import IndexError_
from repro.features import (
    CompositeExtractor,
    CycleFeatureExtractor,
    FeatureExtractor,
    PathFeatureExtractor,
    StarFeatureExtractor,
    path_features,
)
from repro.graph import molecule_dataset, molecule_graph
from repro.graph.canonical import quick_containment_screen
from repro.graph.operations import extend_graph, random_connected_subgraph
from repro.index import ContainmentIndex
from repro.methods import make_method
from repro.query_model import Query, QueryType

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
steps = st.lists(
    st.tuples(st.integers(0, 7), multisets, st.sampled_from(["sub", "super"]), queries),
    max_size=25,
)


class TestAgainstBruteForce:
    @RELAXED
    @given(steps=steps)
    def test_both_questions_under_add_remove_readd(self, steps):
        index = ContainmentIndex()
        live: dict[int, tuple[dict, str]] = {}
        for member, features, group, query in steps:
            if member in live:  # a second draw of a member removes it ...
                index.remove(member)
                del live[member]
            else:               # ... and a third re-adds it, into a freed slot
                index.add(member, features, group)
                live[member] = (features, group)
            assert index.members() == list(live)
            assert len(index) == len(live)
            for asked in ("sub", "super", "nobody"):
                within = {m: f for m, (f, g) in live.items() if g == asked}
                for question in (query, {}):
                    assert index.containing(question, asked) == {
                        m for m, f in within.items() if contains(f, question)}
                    assert index.contained_in(question, asked) == {
                        m for m, f in within.items() if contains(question, f)}

    def test_empty_member_and_empty_query(self):
        index = ContainmentIndex()
        index.add("empty", {})
        index.add("full", {("A",): 2})
        assert index.containing({}) == {"empty", "full"}
        assert index.contained_in({}) == {"empty"}
        assert index.contained_in({("A",): 1}) == {"empty"}
        assert index.contained_in({("A",): 2, ("B",): 1}) == {"empty", "full"}
        assert index.containing({("A",): 3}) == set()

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
        if direction == "sub":
            fits = (contains(entry.features, features)
                    and quick_containment_screen(graph, entry.graph))
        else:
            fits = (contains(features, entry.features)
                    and quick_containment_screen(entry.graph, graph))
        if fits:
            screened.append(entry)
    return screened


class TestCacheScreen:
    def test_screened_entries_equal_a_linear_scan(self, mixed_cache):
        cache, base, rng = mixed_cache
        index = cache.query_index
        seen_sub = seen_super = 0
        for _ in range(40):
            graph = random_connected_subgraph(base, rng.randint(4, 12), rng=rng)
            features = path_features(graph, CACHE_FEATURE_LENGTH)
            for query_type in QueryType:
                sub = index.sub_case_candidates(graph, features, query_type)
                sup = index.super_case_candidates(graph, features, query_type)
                assert sub == _linear_scan(cache, graph, query_type, "sub")
                assert sup == _linear_scan(cache, graph, query_type, "super")
                assert all(entry.query_type is query_type for entry in sub + sup)
                lookup = cache.lookup(Query(graph=graph, query_type=query_type))
                if lookup.exact_entry is None:
                    assert lookup.screened_sub_candidates == len(sub)
                    assert lookup.screened_super_candidates == len(sup)
                seen_sub += len(sub)
                seen_super += len(sup)
        assert seen_sub and seen_super  # the comparison was not vacuous

    def test_exact_hit_never_crosses_query_types_and_prefers_the_oldest(self):
        cache = GraphCache(capacity=10, policy="LRU", window_size=1)
        pattern = molecule_graph(7, rng=5)
        as_super = _entry(pattern.copy(), QueryType.SUPERGRAPH)
        first = _entry(pattern.copy(), QueryType.SUBGRAPH)
        second = _entry(pattern.copy(), QueryType.SUBGRAPH)
        cache.warm([as_super, first, second])
        assert cache.lookup(Query(pattern, QueryType.SUBGRAPH)).exact_entry is first
        assert cache.lookup(Query(pattern, QueryType.SUPERGRAPH)).exact_entry is as_super
        cache.query_index.remove(first.entry_id)
        assert cache.lookup(Query(pattern, QueryType.SUBGRAPH)).exact_entry is second

    def test_index_follows_the_store_through_churn_and_a_byte_budget(self):
        rng = random.Random(31)
        cache = GraphCache(capacity=6, policy="LRU", window_size=4,
                           memory_budget_bytes=9_000)
        for clock in range(60):
            cache.tick()
            graph = molecule_graph(rng.randint(4, 12), rng=rng)
            query = Query(graph, rng.choice(list(QueryType)))
            cache.offer(query, answer={clock}, tests_performed=1, observed_test_cost=0.0)
            resident = [entry.entry_id for entry in cache.entries()]
            assert [entry.entry_id for entry in cache.query_index.entries()] == resident
            assert cache.query_index._index.members() == resident
        reports = cache.eviction_reports()
        assert any(report.evicted for report in reports)
        assert len(cache) < 6  # the byte budget, not the capacity, was binding

    def test_lookup_and_flush_scan_neither_store_nor_index(self, mixed_cache, monkeypatch):
        cache, base, rng = mixed_cache

        def scanned(*_args, **_kwargs):
            raise AssertionError("a per-lookup / per-flush rescan is back")

        monkeypatch.setattr(CacheStore, "__iter__", scanned)
        monkeypatch.setattr(cache.query_index, "entries", scanned)
        for clock in range(9):
            graph = random_connected_subgraph(base, rng.randint(4, 9), rng=rng)
            query = Query(graph, QueryType.SUBGRAPH)
            cache.lookup(query)
            cache.offer(query, answer=set(), tests_performed=1, observed_test_cost=0.0)
        cache.flush_window()
        assert len(cache.query_index) == len(cache) > 24
