"""One copy per query in the cache, and a probe of only what can still prune.

(a) the skip — ``GraphCache._probe`` skips a screened candidate whose answer
    can no longer change the pruning (a guarantee candidate inside the union
    of the earlier guarantee hits, a prune candidate containing the
    intersection of the earlier prune hits).  Over random resident sets and
    queries of both types, ``S``, ``S'``, ``C`` and the answer equal those of
    :func:`tests.oracles.reference_probe`, which confirms every candidate;
(b) the copies — an exact hit advances the admission window but adds no
    entry, so the cache holds one copy per query: on gcbench's ``engine_hot``
    trace at most one resident is ever isomorphic to an older one.
"""

from __future__ import annotations

import random

import networkx as nx
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from benchmarks.gcbench import workloads
from repro.cache import CacheEntry, CandidateSetPruner, GraphCache
from repro.cache.store import CACHE_FEATURE_LENGTH
from repro.features import path_features
from repro.graph import molecule_dataset
from repro.graph.operations import extend_graph, random_connected_subgraph
from repro.index.base import graph_id_sort_key
from repro.methods import make_method
from repro.query_model import Query, QueryType
from repro.runtime import GCConfig, GraphCacheSystem
from tests.oracles import reference_probe, to_networkx

DATASET = molecule_dataset(24, min_vertices=3, max_vertices=14, rng=44)
#: Method M with no filter: ``C_M`` is the whole dataset, so a prune hit
#: lost to a wrong skip always shows in ``S'``.
METHOD = make_method("direct-si")
METHOD.build(DATASET)


def _resident(graph, query_type: QueryType) -> CacheEntry:
    answer = METHOD.execute(graph, query_type).answer
    return CacheEntry(graph=graph, query_type=query_type, answer=frozenset(answer))


def _related_patterns(rng: random.Random, count: int):
    """A query pattern and ``count`` patterns around it: smaller ones inside
    it, larger ones around it, copies of earlier ones and unrelated ones."""
    source = rng.choice([graph for graph in DATASET if graph.num_vertices >= 6])
    outer = random_connected_subgraph(source, rng.randint(4, source.num_vertices), rng=rng)
    query = random_connected_subgraph(outer, rng.randint(2, outer.num_vertices - 1), rng=rng)
    size = query.num_vertices
    patterns = []
    for _ in range(count):
        roll = rng.random()
        if roll < 0.3:
            patterns.append(random_connected_subgraph(query, rng.randint(1, size - 1), rng=rng))
        elif roll < 0.55:
            patterns.append(random_connected_subgraph(
                outer, rng.randint(size + 1, outer.num_vertices), rng=rng))
        elif roll < 0.7:
            patterns.append(extend_graph(query, rng.randint(1, 3), labels=["C", "N", "O"],
                                         rng=rng))
        elif roll < 0.85 and patterns:
            patterns.append(rng.choice(patterns).copy())
        else:
            other = rng.choice(DATASET)
            patterns.append(random_connected_subgraph(
                other, rng.randint(1, min(6, other.num_vertices)), rng=rng))
    return query, patterns


class TestSkipProperty:
    @settings(max_examples=80, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(seed=st.integers(0, 2**32 - 1), residents=st.integers(1, 14),
           query_type=st.sampled_from(list(QueryType)))
    def test_skipping_prunes_as_probing_every_candidate(self, seed, residents, query_type):
        rng = random.Random(seed)
        graph, patterns = _related_patterns(rng, residents)
        cache = GraphCache(capacity=64, policy="LRU")
        # a resident of the other type is never a candidate
        cache.warm([_resident(pattern, rng.choice([query_type] * 4 + list(QueryType)))
                    for pattern in patterns])
        query = Query(graph, query_type)
        lookup = cache.lookup(query)
        expected = METHOD.execute(graph, query_type).answer
        if lookup.exact_entry is not None:
            assert lookup.exact_entry.answer == expected
            return
        sub_hits, super_hits = reference_probe(cache, query)
        # a skipped candidate is not a hit (and so earns no credit)
        assert {e.entry_id for e in lookup.sub_hits} <= {e.entry_id for e in sub_hits}
        assert {e.entry_id for e in lookup.super_hits} <= {e.entry_id for e in super_hits}
        exact_candidates = cache.store.exact_candidates(
            path_features(graph, CACHE_FEATURE_LENGTH), query_type)
        assert lookup.probe_tests <= (len(exact_candidates) + lookup.screened_sub_candidates
                                      + lookup.screened_super_candidates)

        pruner = CandidateSetPruner()
        candidates = METHOD.filter_candidates(graph, query_type)
        skipped = pruner.prune(query_type, candidates, lookup.sub_hits, lookup.super_hits)
        every = pruner.prune(query_type, candidates, sub_hits, super_hits)
        assert skipped.guaranteed_answers == every.guaranteed_answers
        assert skipped.guaranteed_non_answers == every.guaranteed_non_answers
        assert skipped.remaining_candidates == every.remaining_candidates
        verified = METHOD.verify_candidates(
            graph, sorted(skipped.remaining_candidates, key=graph_id_sort_key), query_type)
        assert verified.answers | skipped.guaranteed_answers == expected


class TestOneCopyPerQuery:
    def test_an_exact_hit_advances_the_window_but_adds_no_entry(self):
        patterns = [random_connected_subgraph(DATASET[position], 4, rng=position)
                    for position in range(3)]
        config = GCConfig(cache_capacity=10, window_size=2, replacement_policy="LRU")
        with GraphCacheSystem(DATASET, config) as system:
            cache = system.cache
            first = system.run_query(Query(patterns[0], QueryType.SUBGRAPH))
            system.run_query(Query(patterns[1], QueryType.SUBGRAPH))
            assert len(cache) == 2 and cache.eviction_rounds() == 1
            resident = cache.entries()[0]
            repeat = system.run_query(Query(patterns[0].copy(), QueryType.SUBGRAPH))
            assert repeat.exact_hit_entry == resident.entry_id
            assert repeat.answer == first.answer
            assert resident.stats.exact_hits == 1
            # counted, not added: the next query closes the window on its own
            assert len(cache) == 2 and cache.eviction_rounds() == 1
            system.run_query(Query(patterns[2], QueryType.SUBGRAPH))
            assert cache.eviction_rounds() == 2
            [report] = cache.eviction_reports(since=1)
            assert len(report.admitted) == 1 and len(cache) == 3

    def test_a_window_of_exact_hits_runs_no_round(self):
        cache = GraphCache(capacity=4, policy="LRU", window_size=2)
        query = Query(DATASET[0], QueryType.SUBGRAPH)
        assert cache.offer(query, set(), observed_test_cost=0.0, exact_hit=True) is None
        # the tick that fills the window agrees with flush_window: an empty
        # batch is no replacement round
        assert cache.offer(query, set(), observed_test_cost=0.0, exact_hit=True) is None
        assert cache.eviction_rounds() == 0 and len(cache) == 0
        assert cache.offer(query, set(), observed_test_cost=0.0, exact_hit=True) is None
        assert cache.flush_window() is None
        assert cache.eviction_rounds() == 0

    def test_engine_hot_holds_at_most_one_copy(self, monkeypatch):
        # HD credits seconds saved: a constant test cost makes its choices,
        # and so this count, independent of timing
        monkeypatch.setattr(GraphCacheSystem, "per_test_cost",
                            lambda self, tests, seconds: 0.001)
        spec = workloads.WORKLOADS["engine_hot"]
        data = workloads.dataset(spec.dataset)
        trace = workloads.build_trace(spec, data, seed=1, seconds=18)
        most, rounds = 0, 0
        with GraphCacheSystem(data, spec.gc_config()) as system:
            cache = system.cache
            for query in trace.warmup + trace.timed:
                system.run_query(query)
                if cache.eviction_rounds() > rounds:  # the residents changed
                    rounds = cache.eviction_rounds()
                    most = max(most, _copies(cache.entries()))
        assert rounds > 50
        assert most <= 1


def _copies(entries: list[CacheEntry]) -> int:
    """Residents isomorphic (labels included) to an older resident."""
    def same(first: CacheEntry, second: CacheEntry) -> bool:
        return (first.query_type is second.query_type
                and first.features == second.features
                and nx.is_isomorphic(
                    to_networkx(first.graph), to_networkx(second.graph),
                    node_match=lambda a, b: a["label"] == b["label"],
                    edge_match=lambda a, b: a.get("label") == b.get("label")))

    return sum(1 for position, entry in enumerate(entries)
               if any(same(entry, older) for older in entries[:position]))
