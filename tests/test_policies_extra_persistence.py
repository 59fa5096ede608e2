"""Tests for the extra baseline policies, cache persistence and how a
workload's result shows the cache warming up."""

from __future__ import annotations

import json
import os
import stat

import pytest

from repro.cache import (
    CacheEntry,
    CacheStore,
    FIFOPolicy,
    GraphCache,
    RandomPolicy,
    SizePolicy,
    available_policies,
    load_cache_entries,
    make_policy,
    restore_cache,
    save_cache,
)
from repro.cache import persistence
from repro.cache.persistence import (
    FORMAT_VERSION,
    dataset_digest,
    entries_from_payload,
    entry_from_dict,
    entry_to_dict,
)
from repro.errors import CacheError
from repro.graph import molecule_dataset, molecule_graph
from repro.query_model import Query, QueryType
from repro.runtime import GCConfig, GraphCacheSystem
from repro.sharding.system import make_system
from repro.workload import Workload, generate_trace, run_workload
from tests.conftest import make_subgraph_queries


def make_entry(seed: int, clock: int = 0, answer=frozenset({1})) -> CacheEntry:
    entry = CacheEntry(
        graph=molecule_graph(5 + seed % 4, rng=seed),
        query_type=QueryType.SUBGRAPH,
        answer=frozenset(answer),
        admitted_clock=clock,
    )
    return entry


class TestExtraPolicies:
    def test_registered(self):
        assert {"FIFO", "RANDOM", "SIZE"} <= set(available_policies())

    def test_fifo_evicts_oldest_admission(self):
        policy = FIFOPolicy()
        old = make_entry(1, clock=1)
        new = make_entry(2, clock=9)
        assert policy.get_replaced_content([new, old], 1) == [1]

    def test_random_is_deterministic_per_seed(self):
        first = RandomPolicy(seed=3)
        second = RandomPolicy(seed=3)
        entry = make_entry(3)
        assert first.utility(entry) == second.utility(entry)
        assert RandomPolicy(seed=4).describe()["seed"] == 4

    def test_size_prefers_bigger_graphs(self):
        policy = SizePolicy()
        small = CacheEntry(graph=molecule_graph(4, rng=1), query_type="subgraph",
                           answer=frozenset())
        big = CacheEntry(graph=molecule_graph(9, rng=2), query_type="subgraph",
                         answer=frozenset())
        assert policy.utility(big) > policy.utility(small)

    @pytest.mark.parametrize("name", ["FIFO", "RANDOM", "SIZE"])
    def test_capacity_respected(self, name):
        policy = make_policy(name)
        store = CacheStore()
        incoming = [make_entry(seed, clock=seed) for seed in range(8)]
        policy.update_cache_items(store, incoming, capacity=4)
        assert len(store) <= 4

    @pytest.mark.parametrize("name", ["FIFO", "RANDOM", "SIZE"])
    def test_end_to_end_correctness(self, name):
        dataset = molecule_dataset(10, min_vertices=8, max_vertices=12, rng=17)
        config = GCConfig(cache_capacity=5, window_size=1, method="direct-si",
                          replacement_policy=name)
        system = GraphCacheSystem(dataset, config)
        from repro.methods import DirectSIMethod

        baseline = DirectSIMethod()
        baseline.build(dataset)
        for query in make_subgraph_queries(dataset, 6, 6, seed=18):
            report = system.run_query(query)
            assert report.answer == baseline.execute(query.graph, query.query_type).answer


#: (where in entry 1, bad value, how the CacheError begins)
MALFORMED_FIELDS = [
    (("admitted_clock",), "x", "entry 1: admitted_clock: 'x'"),
    (("observed_test_cost",), "slow", "entry 1: observed_test_cost: 'slow'"),
    (("observed_test_cost",), float("nan"), "entry 1: observed_test_cost: nan"),
    (("baseline_tests",), -3, "entry 1: baseline_tests: -3"),
    (("baseline_tests",), "many", "entry 1: baseline_tests: 'many'"),
    (("baseline_tests",), None, "entry 1: baseline_tests: None"),
    (("stats", "hit_count"), "many", "entry 1: stats.hit_count: 'many'"),
    (("stats",), None, "entry 1: stats: None"),
    (("graph",), None, "entry 1: graph: None"),
    (("graph", "vertices"), [[0]], "entry 1: graph:"),
    (("query_type",), None, "entry 1: query_type:"),
    (("answer",), None, "entry 1: answer: None"),
    (("answer",), [[1]], "entry 1: answer:"),
]


class TestPersistence:
    def test_entry_round_trip(self):
        entry = make_entry(5, clock=7, answer={1, 2, 3})
        entry.stats.hit_count = 4
        entry.stats.tests_saved = 11
        entry.stats.seconds_saved = 0.5
        entry.observed_test_cost = 0.002
        entry.baseline_tests = 9
        restored = entry_from_dict(entry_to_dict(entry))
        assert restored.graph.structural_equal(entry.graph)
        assert restored.answer == entry.answer
        assert restored.query_type is entry.query_type
        assert restored.stats.hit_count == 4
        assert restored.stats.tests_saved == 11
        assert restored.observed_test_cost == pytest.approx(0.002)
        assert restored.baseline_tests == 9
        assert restored.entry_id != entry.entry_id  # fresh id on load

    def test_save_and_restore_cache(self, tmp_path):
        cache = GraphCache(capacity=10, window_size=1, policy="LRU")
        cache.warm([make_entry(seed, answer={seed}) for seed in range(6)])
        path = tmp_path / "cache.json"
        written = save_cache(cache, path)
        assert written == 6

        fresh = GraphCache(capacity=10, window_size=1, policy="LRU")
        restored = restore_cache(fresh, path)
        assert restored == 6
        assert len(fresh) == 6
        store = fresh.store
        assert store._index.members() == [entry.entry_id for entry in store.entries()]

    def test_restore_respects_capacity(self, tmp_path):
        cache = GraphCache(capacity=10, window_size=1)
        cache.warm([make_entry(seed) for seed in range(8)])
        path = tmp_path / "cache.json"
        save_cache(cache, path)
        small = GraphCache(capacity=3, window_size=1)
        restore_cache(small, path)
        assert len(small) == 3

    def test_restored_cache_produces_hits(self, tmp_path):
        dataset = molecule_dataset(12, min_vertices=10, max_vertices=14, rng=23)
        config = GCConfig(cache_capacity=10, window_size=1, method="direct-si")
        system = GraphCacheSystem(dataset, config)
        queries = make_subgraph_queries(dataset, 5, 7, seed=24)
        for query in queries:
            system.run_query(query)
        path = tmp_path / "warm.json"
        save_cache(system.cache, path)

        # a brand new system restored from the snapshot sees exact hits for
        # the same patterns without re-running them first
        fresh = GraphCacheSystem(dataset, config)
        restore_cache(fresh.cache, path)
        repeat = Query(graph=queries[0].graph.copy(), query_type=QueryType.SUBGRAPH)
        report = fresh.run_query(repeat)
        assert report.exact_hit_entry is not None
        assert report.dataset_tests == 0

    def test_restore_into_a_live_cache_reports_what_went_in(self, tmp_path):
        dataset = molecule_dataset(6, min_vertices=8, max_vertices=10, rng=33)
        donor = GraphCache(capacity=10, window_size=1)
        donor.warm([make_entry(seed) for seed in range(5)])
        path = tmp_path / "cache.json"
        # written for `dataset`, so the system below accepts it
        assert save_cache(donor, path, digest=dataset_digest(dataset)) == 5

        live = GraphCache(capacity=10, window_size=1)
        assert live.warm([make_entry(seed) for seed in range(10, 19)]) == 9
        assert restore_cache(live, path) == 1  # one free slot, not five
        assert len(live) == 10

        with GraphCacheSystem(dataset, GCConfig(cache_capacity=10, window_size=1)) as system:
            system.cache.warm([make_entry(seed) for seed in range(20, 29)])
            assert system.restore_snapshot(path) == 1
            assert len(system.cache) == 10

    def test_a_snapshot_restores_only_onto_its_own_dataset(self, tmp_path, caplog):
        """Cached answers are graph ids of the dataset they were computed on:
        restored onto another dataset they would be served as wrong answers."""
        config = GCConfig(cache_capacity=30, window_size=1)
        ours = molecule_dataset(40, rng=1)
        theirs = molecule_dataset(40, rng=2)
        queries = make_subgraph_queries(ours, 30, 5, seed=3)
        path = tmp_path / "cache.json"
        with GraphCacheSystem(ours, config) as system:
            system.run_queries(queries)
            saved = system.save_snapshot(path)
        assert saved > 0
        # graph order is not part of the dataset's identity
        with GraphCacheSystem(list(reversed(ours)), config) as system:
            assert system.restore_snapshot(path) == saved
        with caplog.at_level("WARNING", logger="repro.runtime"):
            with GraphCacheSystem(theirs, config) as system:
                assert system.restore_snapshot(path) == 0
                answers = [system.run_query(q.graph.copy()).answer for q in queries]
        assert "not written for this dataset" in caplog.text
        with GraphCacheSystem(theirs, GCConfig(cache_enabled=False)) as reference:
            assert answers == [reference.run_query(q.graph.copy()).answer for q in queries]

    @pytest.mark.parametrize("policy", ["HD", "LRU", "FIFO"])
    def test_a_warm_restart_keeps_admitting(self, tmp_path, policy):
        """Restored entries keep the clocks of the process that wrote them;
        a restarted cache whose clock began at 0 again would rank every new
        entry older than every restored one and admit nothing."""
        dataset = molecule_dataset(30, min_vertices=8, max_vertices=14, rng=41)
        config = GCConfig(cache_capacity=10, window_size=5, replacement_policy=policy)
        path = tmp_path / "cache.json"
        with GraphCacheSystem(dataset, config) as donor:
            donor.run_queries(generate_trace(dataset, 160, seed=42))
            assert donor.save_snapshot(path) == 10
        fresh = list(generate_trace(dataset, 80, seed=43))
        with GraphCacheSystem(dataset, config) as system:
            assert system.restore_snapshot(path) == 10
            restored = {entry.entry_id for entry in system.cache.entries()}
            system.run_queries(fresh)
            rounds = system.cache.eviction_reports()
        with GraphCacheSystem(dataset, config) as cold:
            cold.run_queries(fresh)
            cold_admitted = sum(report.num_admitted for report in cold.cache.eviction_reports())
        admitted = sum(report.num_admitted for report in rounds)
        evicted = {entry_id for report in rounds for entry_id in report.evicted}
        assert admitted >= cold_admitted // 2 > 0
        assert evicted & restored

    def test_malformed_snapshot_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("[]", encoding="utf-8")
        with pytest.raises(CacheError):
            load_cache_entries(path)
        path.write_text('{"format_version": 99, "entries": []}', encoding="utf-8")
        with pytest.raises(CacheError):
            load_cache_entries(path)
        path.write_text('{"entries": [{"graph": {}}]}', encoding="utf-8")
        with pytest.raises(CacheError):
            load_cache_entries(path)

    @pytest.mark.parametrize("path, value, named", MALFORMED_FIELDS,
                             ids=[f"{'.'.join(p)}={v!r}" for p, v, _ in MALFORMED_FIELDS])
    def test_a_malformed_entry_is_a_cache_error_naming_its_field(self, path, value, named):
        payload = {"format_version": FORMAT_VERSION,
                   "entries": [entry_to_dict(make_entry(seed)) for seed in range(2)]}
        target = payload["entries"][1]
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = value
        with pytest.raises(CacheError) as raised:
            entries_from_payload(json.loads(json.dumps(payload)))
        assert str(raised.value).startswith(named)

    def test_a_missing_field_is_named(self):
        payload = {"format_version": FORMAT_VERSION, "entries": [entry_to_dict(make_entry(1))]}
        del payload["entries"][0]["baseline_tests"]
        with pytest.raises(CacheError, match="^entry 0: baseline_tests: missing$"):
            entries_from_payload(payload)

    @pytest.mark.parametrize("payload", [
        {"format_version": FORMAT_VERSION, "entries": None},
        {"format_version": "2", "entries": []},
        {"format_version": 1, "entries": []},
        {"entries": []},
        {"format_version": FORMAT_VERSION, "entries": [None]},
    ])
    def test_a_malformed_snapshot_is_a_cache_error(self, payload):
        with pytest.raises(CacheError):
            entries_from_payload(payload)

    def test_a_snapshot_that_is_not_json_is_a_cache_error(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json", encoding="utf-8")
        with pytest.raises(CacheError, match="is not JSON"):
            load_cache_entries(path)
        dataset = molecule_dataset(6, min_vertices=8, max_vertices=10, rng=33)
        for num_shards in (1, 2):
            config = GCConfig(cache_capacity=4, window_size=1, num_shards=num_shards)
            with make_system(dataset, config) as system:
                with pytest.raises(CacheError, match="is not JSON"):
                    system.restore_snapshot(path)

    def test_a_version_1_snapshot_restores_cold(self, tmp_path, caplog):
        """Version 1 entries carry no ``|C_M|``, so they could not credit an
        exact hit: the restore starts cold, with a warning naming the format."""
        dataset = molecule_dataset(20, min_vertices=8, max_vertices=12, rng=34)
        config = GCConfig(cache_capacity=10, window_size=1)
        path = tmp_path / "cache.json"
        with GraphCacheSystem(dataset, config) as system:
            system.run_queries(make_subgraph_queries(dataset, 6, 5, seed=35))
            assert system.save_snapshot(path) > 0
        payload = json.loads(path.read_text(encoding="utf-8"))
        assert payload["format_version"] == FORMAT_VERSION == 2
        payload["format_version"] = 1
        for item in payload["entries"]:
            del item["baseline_tests"]
        path.write_text(json.dumps(payload), encoding="utf-8")
        with caplog.at_level("WARNING", logger="repro.runtime"):
            with GraphCacheSystem(dataset, config) as system:
                assert system.restore_snapshot(path) == 0
                assert len(system.cache) == 0
        assert "is format 1, not 2: starting cold" in caplog.text


class TestAtomicSnapshots:
    @pytest.mark.parametrize("num_shards", [1, 2])
    @pytest.mark.parametrize("failing", ["fsync", "replace"])
    def test_a_save_that_fails_midway_leaves_the_previous_snapshot(
            self, tmp_path, monkeypatch, num_shards, failing):
        """The new text reaches a temporary file and then the write fails:
        the files on disk are the previous save's, byte for byte, and they
        restore every entry that save wrote."""
        dataset = molecule_dataset(20, min_vertices=8, max_vertices=12, rng=36)
        config = GCConfig(cache_capacity=10, window_size=1, num_shards=num_shards)
        path = tmp_path / "cache.json"
        with make_system(dataset, config) as system:
            system.run_queries(make_subgraph_queries(dataset, 6, 5, seed=37))
            saved = system.save_snapshot(path)
            before = {file.name: file.read_bytes() for file in tmp_path.iterdir()}
            system.run_queries(make_subgraph_queries(dataset, 6, 5, seed=38))

            def crash(*args):
                raise OSError(f"{failing} failed")

            with monkeypatch.context() as patch:
                patch.setattr(persistence.os, failing, crash)
                with pytest.raises(OSError, match="failed"):
                    system.save_snapshot(path)
        assert saved > 0
        assert {file.name: file.read_bytes() for file in tmp_path.iterdir()} == before
        with make_system(dataset, config) as system:
            assert system.restore_snapshot(path) == saved


    @pytest.mark.parametrize("num_shards", [1, 2])
    def test_a_snapshot_gets_the_mode_open_would_give_it(self, tmp_path, num_shards):
        """A new file is 0o666 less the umask; a file replaced by the next
        save keeps the mode it had, as ``open(path, "w")`` would leave them."""
        dataset = molecule_dataset(20, min_vertices=8, max_vertices=12, rng=36)
        config = GCConfig(cache_capacity=10, window_size=1, num_shards=num_shards)
        path = tmp_path / "cache.json"

        def modes() -> set[int]:
            return {stat.S_IMODE(file.stat().st_mode) for file in tmp_path.iterdir()}

        umask = os.umask(0o027)
        try:
            with make_system(dataset, config) as system:
                system.run_queries(make_subgraph_queries(dataset, 6, 5, seed=37))
                system.save_snapshot(path)
                assert len(list(tmp_path.iterdir())) == 1 + (num_shards > 1) * num_shards
                assert modes() == {0o640}
                for file in tmp_path.iterdir():
                    file.chmod(0o604)
                system.save_snapshot(path)
        finally:
            os.umask(umask)
        assert modes() == {0o604}

    @pytest.mark.parametrize("num_shards", [1, 2])
    def test_the_temporary_file_is_never_wider_than_the_snapshot(
            self, tmp_path, num_shards, monkeypatch):
        """Replacing a 0600 snapshot under umask 022 never creates a
        temporary file that others may open."""
        dataset = molecule_dataset(20, min_vertices=8, max_vertices=12, rng=36)
        config = GCConfig(cache_capacity=10, window_size=1, num_shards=num_shards)
        path = tmp_path / "cache.json"
        created = []
        real_open = os.open

        def recording_open(file, flags, *args, **kwargs):
            handle = real_open(file, flags, *args, **kwargs)
            if str(file).endswith(".tmp"):
                created.append(stat.S_IMODE(os.fstat(handle).st_mode))
            return handle

        umask = os.umask(0o022)
        try:
            with make_system(dataset, config) as system:
                system.run_queries(make_subgraph_queries(dataset, 6, 5, seed=37))
                system.save_snapshot(path)
                for file in tmp_path.iterdir():
                    file.chmod(0o600)
                monkeypatch.setattr(os, "open", recording_open)
                system.save_snapshot(path)
        finally:
            os.umask(umask)
        assert len(created) == 1 + (num_shards > 1) * num_shards
        assert set(created) == {0o600}


class TestStatisticsTimeline:
    def test_workload_shows_cache_warming(self):
        dataset = molecule_dataset(10, min_vertices=8, max_vertices=12, rng=31)
        system = GraphCacheSystem(dataset, GCConfig(cache_capacity=8, window_size=1,
                                                    method="direct-si"))
        pattern = make_subgraph_queries(dataset, 1, 6, seed=32)[0]
        repeats = [Query(graph=pattern.graph.copy(), query_type=QueryType.SUBGRAPH)
                   for _ in range(6)]
        result = run_workload(system, Workload("repeat", repeats))
        # the first query meets an empty cache; every repeat hits its entry
        assert result.hit_percentages[0] == 0.0
        assert all(percentage > 0 for percentage in result.hit_percentages[1:])
        assert result.aggregate.num_hits == 5
        assert result.reports[-1].tests_saved >= 0
        assert result.aggregate.total_baseline_tests >= result.aggregate.total_dataset_tests
