"""The pattern analysis: what a query graph remembers, and that it is enough.

A pattern graph keeps — beside its compiled form, dropped with it — its
match plan and its label paths: enumerated at the longest length asked for
so far, restricted once to each shorter one asked for.  Five groups:

(i)   property — the restriction of a remembered multiset equals direct
      enumeration at every shorter length, whichever length was asked first,
      and is itself remembered;
(ii)  lifetime — every slot is dropped by all five mutators and never
      travels with ``pickle``, ``copy()`` or ``to_dict()``;
(iii) enumeration counts — one enumeration per query graph on the unsharded
      pipeline (none on admission), at most two under thread shards, none
      remembered by a dataset graph;
(iv)  no reader mutates what is shared — after a mixed run every remembered
      multiset still equals a fresh enumeration, also with threads sharing
      one query graph;
(v)   trajectory — a fixed mixed trace under a time-independent policy
      yields the candidate sets, screened entry lists, hits, probe counts,
      admissions, evictions and scatter plans of the parent commit.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import pickle
import random
import sys
from collections import defaultdict

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.cache import CacheEntry, CacheStore, GraphCache
from repro.cache.store import CACHE_FEATURE_LENGTH
from repro.features import paths as paths_module
from repro.features.paths import PathFeatureExtractor, enumerate_paths, path_features
from repro.graph import Graph, label_clustered_dataset, molecule_dataset, molecule_graph
from repro.graph.compiled import CompiledGraph
from repro.graph.operations import extend_graph, random_connected_subgraph
from repro.query_model import Query, QueryType
from repro.runtime import GCConfig, GraphCacheSystem
from repro.runtime.executor import QueryExecutor
from repro.sharding import ShardSummary
from repro.sharding.system import ShardedGraphCacheSystem
from repro.workload import WorkloadGenerator, WorkloadMix, generate_trace
from tests.differential import run_on_threads

#: The memo slots of a compiled graph (everything that is not its bitset data).
MEMO_SLOTS = ("paths", "_plan")


@st.composite
def labelled_graphs(draw) -> Graph:
    """Small graphs with repeated labels, cycles and isolated components."""
    size = draw(st.integers(1, 7))
    graph = Graph()
    for vertex in range(size):
        graph.add_vertex(vertex, draw(st.sampled_from("CNO")))
    pairs = list(itertools.combinations(range(size), 2))
    if pairs:
        for u, v in draw(st.lists(st.sampled_from(pairs), unique=True, max_size=12)):
            graph.add_edge(u, v)
    return graph


def fill_every_slot(graph: Graph) -> CompiledGraph:
    path_features(graph, 3)
    compiled = graph.compiled()
    compiled.plan()
    return compiled


def _plan_fields(graph: Graph) -> list:
    plan = graph.compiled().plan()
    return [getattr(plan, slot) for slot in plan.__slots__]


@pytest.fixture()
def enumerations(monkeypatch):
    """Count calls of the top-level path enumeration: ``id(graph)`` → lengths."""
    calls: dict[int, list[int]] = defaultdict(list)
    original = paths_module.enumerate_paths

    def counting(graph, max_length):
        calls[id(graph)].append(max_length)
        return original(graph, max_length)

    monkeypatch.setattr(paths_module, "enumerate_paths", counting)
    return calls


# --------------------------------------------------------------------------- #
# (i) restriction ≡ direct enumeration
# --------------------------------------------------------------------------- #
class TestRestriction:
    @settings(max_examples=120, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(graph=labelled_graphs(), longest=st.integers(0, 4), short_first=st.booleans())
    def test_shorter_lengths_are_restrictions_in_either_fill_order(
            self, graph, longest, short_first):
        lengths = list(range(longest + 1))
        for length in (lengths if short_first else lengths[::-1]):
            assert path_features(graph, length) == enumerate_paths(graph.copy(), length)
        assert max(graph.compiled().paths) == longest
        for length in lengths:  # and once the longest is remembered
            assert path_features(graph, length) == enumerate_paths(graph.copy(), length)

    def test_restriction_on_molecule_graphs_and_key_order(self):
        # the restricted multiset also lists its keys in enumeration order, so
        # nothing downstream of it (index key numbering) depends on who asked first
        for seed in range(40):
            graph = molecule_graph(12, rng=seed)
            path_features(graph, 3)
            for length in range(3):
                direct = enumerate_paths(graph.copy(), length)
                assert list(path_features(graph, length).items()) == list(direct.items())

    def test_only_a_longer_request_enumerates_again(self, enumerations):
        graph = molecule_graph(10, rng=3)
        for length in (2, 1, 2, 0, 3, 2, 3, 1):
            path_features(graph, length)
        assert enumerations[id(graph)] == [2, 3]
        assert path_features(graph, 3) is path_features(graph, 3)  # the remembered object

    def test_each_restriction_is_built_once(self, enumerations):
        graph = molecule_graph(10, rng=5)
        longest = path_features(graph, 3)
        restricted = {length: path_features(graph, length) for length in range(3)}
        for _ in range(3):  # the cache screen asks for length 2 on every lookup
            for length, features in restricted.items():
                assert path_features(graph, length) is features
        assert graph.compiled().paths == {3: longest, **restricted}
        assert enumerations[id(graph)] == [3]

    def test_pattern_side_of_an_extractor_remembers_build_side_does_not(self):
        graph = molecule_graph(9, rng=4)
        extractor = PathFeatureExtractor(2)
        assert extractor.extract(graph) == enumerate_paths(graph, 2)
        assert graph._compiled is None
        assert extractor.extract_pattern(graph) is graph.compiled().paths[2]


# --------------------------------------------------------------------------- #
# (ii) lifetime of the slots
# --------------------------------------------------------------------------- #
class TestLifetime:
    MUTATORS = {
        "add_vertex": lambda g: g.add_vertex(99, "S"),
        "set_label": lambda g: g.set_label(0, "S"),
        "add_edge": lambda g: g.add_edge(0, 2),
        "remove_edge": lambda g: g.remove_edge(0, 1),
        "remove_vertex": lambda g: g.remove_vertex(1),
    }

    def test_memo_slots_are_exactly_the_known_ones(self):
        data_slots = {"adj_bits", "label_bits", "degree_at_least", "edge_labels"}
        assert set(CompiledGraph.__slots__) - data_slots == set(MEMO_SLOTS)

    @pytest.mark.parametrize("name", sorted(MUTATORS))
    def test_every_mutator_drops_every_slot(self, name, square_with_tail):
        graph = square_with_tail
        compiled = fill_every_slot(graph)
        assert all(getattr(compiled, slot) is not None for slot in MEMO_SLOTS)
        self.MUTATORS[name](graph)
        assert graph._compiled is None
        # what is recomputed describes the new shape, not the old one
        rebuilt = Graph.from_dict(graph.to_dict())
        assert _plan_fields(graph) == _plan_fields(rebuilt)
        assert path_features(graph, 3) == enumerate_paths(rebuilt, 3)

    def test_copies_pickles_and_dicts_carry_no_slot(self, square_with_tail):
        graph = square_with_tail
        fill_every_slot(graph)
        assert graph.copy()._compiled is None
        assert pickle.loads(pickle.dumps(graph))._compiled is None
        assert set(graph.to_dict()) == {"graph_id", "name", "vertices", "edges"}
        assert len(pickle.dumps(graph)) == len(pickle.dumps(graph.copy()))

    def test_exact_candidates_are_isomorphism_invariant_and_typed(self):
        graph = molecule_graph(9, rng=2)
        renamed = graph.relabel_vertices({v: f"x{v}" for v in graph.vertices()})
        store = CacheStore()
        entry = CacheEntry(graph=graph, query_type=QueryType.SUBGRAPH, answer=frozenset())
        store.add(entry)
        features = path_features(renamed, CACHE_FEATURE_LENGTH)
        assert store.exact_candidates(features, QueryType.SUBGRAPH) == [entry]
        assert store.exact_candidates(features, QueryType.SUPERGRAPH) == []


# --------------------------------------------------------------------------- #
# (iii) enumeration counts
# --------------------------------------------------------------------------- #
def _journey(dataset) -> list[Query]:
    """Miss, repeats (exact hits), a shrunk and an extended pattern (sub /
    super hits), in both semantics — each query a graph object of its own."""
    rng = random.Random(7)
    queries = []
    for query_type in QueryType:
        base = random_connected_subgraph(dataset[3], 8, rng=rng)
        smaller = random_connected_subgraph(base, 5, rng=rng)
        larger = extend_graph(base, 2, labels=["C", "N", "O"], rng=rng)
        for graph in (base, base.copy(), smaller, larger, smaller.copy(), base.copy()):
            queries.append(Query(graph=graph, query_type=query_type))
    return queries


class TestEnumerationCounts:
    def test_unsharded_pipeline_enumerates_each_query_once(self, small_dataset, enumerations):
        config = GCConfig(cache_capacity=6, window_size=1, replacement_policy="LRU")
        with GraphCacheSystem(small_dataset, config) as system:
            enumerations.clear()  # the index build enumerated every dataset graph
            reports = [system.run_query(query) for query in _journey(small_dataset)]
            admitted = [i for r in system.cache.eviction_reports() for i in r.admitted]
        # the journey really visits every kind of execution...
        assert any(r.exact_hit_entry for r in reports)
        assert any(r.sub_hit_entries for r in reports)
        assert any(r.super_hit_entries for r in reports)
        assert any(not (r.exact_hit_entry or r.sub_hit_entries or r.super_hit_entries)
                   for r in reports)
        # window of 1: every query was admitted, except that an exact hit
        # adds no copy of its resident
        assert len(admitted) == sum(1 for r in reports if r.exact_hit_entry is None)
        # ...and each paid for exactly one enumeration, admission included
        assert dict(enumerations) == {id(r.query.graph): [3] for r in reports}

    def test_thread_shards_share_the_query_graph(self, enumerations):
        dataset = label_clustered_dataset(2, 10, rng=3)
        config = GCConfig(cache_capacity=6, window_size=1, replacement_policy="LRU",
                          num_shards=2, scatter_mode="short-circuit")
        trace = generate_trace(dataset, 30, skew="zipfian", query_type="mixed", seed=4)
        interval = sys.getswitchinterval()
        # the two shard threads start together and both find the planner's
        # length-1 multiset; which of them enumerates the longer one is a
        # benign race (equal values) that a long time slice keeps out of the count
        sys.setswitchinterval(5.0)
        try:
            with ShardedGraphCacheSystem(dataset, config) as system:
                enumerations.clear()
                for query in trace:
                    system.run_query(query)
                    lengths = enumerations.pop(id(query.graph))
                    fanout = query.metadata["scatter"]["fanout"]
                    assert lengths == ([1, 3] if fanout else [1]), (lengths, fanout)
                assert not enumerations
                assert system.planner.stats.to_dict()["mean_fanout"] < 2
        finally:
            sys.setswitchinterval(interval)

    def test_builds_enumerate_and_drop(self, small_dataset):
        dataset = [graph.copy() for graph in small_dataset]
        with GraphCacheSystem(dataset, GCConfig()) as system:
            assert system.index_memory_bytes() > 0
            ShardSummary.build(0, dataset, PathFeatureExtractor(1))
            assert all(graph._compiled is None for graph in dataset)
            system.run_query(random_connected_subgraph(dataset[0], 5, rng=1))
        # verification compiles dataset graphs; it never gives them features
        assert any(graph._compiled is not None for graph in dataset)
        assert all(graph._compiled is None or graph._compiled.paths is None
                   for graph in dataset)

    def test_planner_reads_labels_from_the_compiled_form(self, monkeypatch):
        dataset = label_clustered_dataset(2, 6, rng=5)
        config = GCConfig(num_shards=2, scatter_mode="short-circuit")
        with ShardedGraphCacheSystem(dataset, config) as system:
            monkeypatch.setattr(Graph, "label_counts", lambda graph: pytest.fail(
                "a per-shard, per-query label Counter is back"))
            plans = [system.planner.plan(Query(graph.copy(), query_type))
                     for graph in dataset[:6] for query_type in QueryType]
        assert any(plan.skipped for plan in plans) and any(plan.targets for plan in plans)


# --------------------------------------------------------------------------- #
# (iv) nobody mutates what is shared
# --------------------------------------------------------------------------- #
def _assert_memos_intact(graphs, caches) -> None:
    for graph in graphs:
        compiled = graph._compiled
        assert compiled is not None and compiled.paths is not None
        for length, features in compiled.paths.items():
            assert features == enumerate_paths(graph.copy(), length)
    for cache in caches:
        for entry in cache.entries():
            assert entry.features == enumerate_paths(entry.graph.copy(), CACHE_FEATURE_LENGTH)


class TestSharedValuesStayIntact:
    def test_after_200_mixed_queries(self, small_dataset):
        trace = generate_trace(small_dataset, 200, skew="zipfian", query_type="mixed", seed=21)
        config = GCConfig(cache_capacity=10, window_size=3)
        with GraphCacheSystem(small_dataset, config) as system:
            reports = system.run_queries(list(trace))
            assert sum(1 for r in reports if r.sub_hit_entries or r.super_hit_entries) > 20
            _assert_memos_intact([query.graph for query in trace], system.all_caches())

    def test_with_four_threads_sharing_one_query_graph(self, small_dataset):
        trace = generate_trace(small_dataset, 50, skew="zipfian", query_type="mixed", seed=22)
        shared = [Query(query.graph, query.query_type) for query in trace for _ in range(4)]
        config = GCConfig(cache_capacity=10, window_size=3)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with GraphCacheSystem(small_dataset, config) as system:
                reports = run_on_threads(system, shared, threads=4)
                _assert_memos_intact([query.graph for query in trace], system.all_caches())
        finally:
            sys.setswitchinterval(interval)
        for position in range(0, len(reports), 4):  # one graph, one answer
            assert len({frozenset(r.answer) for r in reports[position:position + 4]}) == 1


# --------------------------------------------------------------------------- #
# (v) the parent's trajectory
# --------------------------------------------------------------------------- #
def _digest(value) -> str:
    return hashlib.sha256(json.dumps(value, sort_keys=True).encode()).hexdigest()


def _cache_trajectory(policy: str):
    dataset = molecule_dataset(60, min_vertices=8, max_vertices=18, rng=23)
    generator = WorkloadGenerator(dataset, rng=17)
    queries = []
    for query_type in QueryType:
        mix = WorkloadMix(zipf_alpha=1.1, pool_size=12, query_type=query_type,
                          min_pattern_vertices=4, max_pattern_vertices=10)
        queries.extend(generator.generate(150, mix).queries)
    trace = [queries[(i // 2) + (150 if i % 2 else 0)] for i in range(300)]
    config = GCConfig(cache_capacity=12, window_size=8, replacement_policy=policy)
    rows, screened = [], []
    with pytest.MonkeyPatch.context() as patch:
        # HD and PINC credit seconds saved: a constant cost per dataset test
        # makes those seconds, and so their choices, independent of timing
        patch.setattr(QueryExecutor, "per_test_cost", lambda self, tests, seconds: 0.001)
        for name in ("sub_case_candidates", "super_case_candidates"):
            def spy(self, *args, _original=getattr(CacheStore, name), _name=name):
                entries = _original(self, *args)
                screened.append((_name, [entry.entry_id for entry in entries]))
                return entries
            patch.setattr(CacheStore, name, spy)
        # entry ids are a process-wide counter: report them relative to now
        base = CacheEntry(graph=Graph(), query_type="subgraph", answer=frozenset()).entry_id
        with GraphCacheSystem(dataset, config) as system:
            for query in trace:
                screened.clear()
                report = system.run_query(query)
                row = {
                    "candidates": sorted(report.method_candidates),
                    "screened": [(n, [i - base for i in ids]) for n, ids in screened],
                    "exact": report.exact_hit_entry and report.exact_hit_entry - base,
                    "sub": [i - base for i in report.sub_hit_entries],
                    "super": [i - base for i in report.super_hit_entries],
                    "probe_tests": report.probe_tests,
                    "dataset_tests": report.dataset_tests,
                    "answer": sorted(report.answer),
                }
                if report.exact_hit_entry is not None:
                    # an exact hit runs no filter and confirms by kernel test
                    row["candidates"] = report.baseline_tests
                    del row["probe_tests"]
                rows.append(row)
            rounds = [([i - base for i in r.admitted], [i - base for i in r.evicted])
                      for r in system.cache.eviction_reports()]
    return rows, rounds


def _scatter_trajectory():
    dataset = (label_clustered_dataset(3, 14, rng=31)
               + molecule_dataset(12, min_vertices=6, max_vertices=12, rng=5))
    for position, graph in enumerate(dataset):
        graph.graph_id = position
    config = GCConfig(cache_capacity=8, window_size=2, replacement_policy="LRU",
                      num_shards=3, scatter_mode="short-circuit")
    trace = generate_trace(dataset, 120, skew="zipfian", query_type="mixed", seed=9)
    with ShardedGraphCacheSystem(dataset, config) as system:
        plans = []
        for query in trace:
            report = system.run_query(query)
            plans.append((query.metadata["scatter"], sorted(report.answer)))
        return plans, system.planner.stats.to_dict()


#: Digest of every answer of the cache trajectory below, in trace order: the
#: same under every policy and at every commit (a cache never changes an answer).
TRAJECTORY_ANSWERS = "043d69dccc597ab01c6cde10cba64f33ba39cd38b5b0ab62b6f227fc10e871e9"


class TestParentTrajectory:
    """Digests computed by running these very functions against an earlier
    commit; they are stable across ``PYTHONHASHSEED``.  The four cache
    digests were re-derived on top of ``75f6e43`` when an exact hit stopped
    adding a copy to the window and the probe began skipping candidates that
    can no longer change the pruning (an exact row records ``baseline_tests``
    in place of its candidate set and omits ``probe_tests``).  Against
    ``75f6e43`` the answers are unchanged and every policy runs fewer
    dataset tests (the last parameter).  They run with a constant test cost
    patched in, so that HD and PINC choose independently of timing — under
    it PINC ranks as PIN does, so their digests coincide.
    The scatter digest comes from ``036d1ab``, with the ``exact_shards`` plan
    key and the ``exact_routed_queries`` counter that commit still had
    projected out, and the ``fallbacks`` plan key and ``summary_fallbacks``
    counter of the deleted summary seal projected out as well (``75f68d6``,
    which still had them, gives the same digest under that projection)."""

    @pytest.mark.parametrize("policy, parent_digest, dataset_tests_before", [
        ("LRU", "fe8b88e5bae3e36e758f253bcb85b31033afe5dff136f5bde5e90e7580a34c7d", 672),
        ("PIN", "c63175275c8a0ce2263f7503018edc723b88585d4c62b6aee4638ca930067446", 520),
        ("HD", "4bb6ce2ff942002fd0f7edd6af84917c2ab9cbb774a2bcb44d51ff6651429707", 421),
        ("PINC", "c63175275c8a0ce2263f7503018edc723b88585d4c62b6aee4638ca930067446", 520),
    ], ids=["LRU", "PIN", "HD", "PINC"])
    def test_cache_trajectory_is_the_parents(self, policy, parent_digest,
                                             dataset_tests_before):
        rows, rounds = _cache_trajectory(policy)
        assert sum(1 for row in rows if row["exact"]) > 20
        assert sum(1 for row in rows if row["sub"] or row["super"]) > 60
        assert sum(len(evicted) for _, evicted in rounds) > 50
        assert _digest([row["answer"] for row in rows]) == TRAJECTORY_ANSWERS
        assert sum(row["dataset_tests"] for row in rows) < dataset_tests_before
        assert _digest([rows, rounds]) == parent_digest

    def test_scatter_plans_and_stats_are_the_parents(self):
        plans, stats = _scatter_trajectory()
        assert set(stats["skip_reasons"]) == {"feature-gap", "size-envelope", "label-gap"}
        assert _digest([plans, stats]) == (
            "02ad8e062b84fa7a7cdd42d29bb66a9c2fd81ffd66cb077068bc77c0fcf6a0e2")
