"""Tests for the replacement policies (LRU, POP, PIN, PINC, HD), and the victim
oracle: a round that ranks once per change of the resident set chooses what
re-ranking for every incoming entry chose (``tests/oracles.py``)."""

from __future__ import annotations

import random
from functools import partial
from unittest import mock

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.cache import (
    CacheEntry,
    CacheStore,
    HDPolicy,
    HitContribution,
    HitKind,
    LRUPolicy,
    PINCPolicy,
    PINPolicy,
    POPPolicy,
    available_policies,
    make_policy,
    register_policy,
)
from repro.cache.policies.base import ReplacementPolicy
from repro.errors import CacheError, UnknownPolicyError
from repro.graph import molecule_graph
from repro.query_model import QueryType
from tests.oracles import reference_hd_ranking, reference_update_cache_items

ALL_POLICIES = ["LRU", "POP", "PIN", "PINC", "HD"]


def make_entry(seed: int, clock: int = 0) -> CacheEntry:
    entry = CacheEntry(
        graph=molecule_graph(5, rng=seed),
        query_type=QueryType.SUBGRAPH,
        answer=frozenset({seed}),
        admitted_clock=clock,
    )
    entry.stats.last_used_clock = clock
    return entry


def hit(clock: int, tests: int = 0, seconds: float = 0.0, kind=HitKind.SUB) -> HitContribution:
    return HitContribution(kind=kind, clock=clock, tests_saved=tests, seconds_saved=seconds)


class TestStatisticsUpdate:
    def test_update_counts_by_kind(self):
        policy = LRUPolicy()
        entry = make_entry(1)
        policy.update_cache_sta_info(entry, hit(5, kind=HitKind.SUB))
        policy.update_cache_sta_info(entry, hit(6, kind=HitKind.SUPER))
        policy.update_cache_sta_info(entry, hit(7, kind=HitKind.EXACT))
        assert entry.stats.hit_count == 3
        assert entry.stats.sub_hits == 1
        assert entry.stats.super_hits == 1
        assert entry.stats.exact_hits == 1
        assert entry.stats.last_used_clock == 7

    def test_update_accumulates_savings(self):
        policy = PINPolicy()
        entry = make_entry(2)
        policy.update_cache_sta_info(entry, hit(1, tests=10, seconds=0.5))
        policy.update_cache_sta_info(entry, hit(2, tests=5, seconds=0.25))
        assert entry.stats.tests_saved == 15
        assert entry.stats.seconds_saved == pytest.approx(0.75)


class TestUtilities:
    def test_lru_prefers_recent(self):
        policy = LRUPolicy()
        old, new = make_entry(1, clock=1), make_entry(2, clock=9)
        assert policy.utility(new) > policy.utility(old)

    def test_pop_prefers_popular(self):
        policy = POPPolicy()
        cold, hot = make_entry(3), make_entry(4)
        policy.update_cache_sta_info(hot, hit(1))
        policy.update_cache_sta_info(hot, hit(2))
        assert policy.utility(hot) > policy.utility(cold)

    def test_pin_ranks_by_tests_saved(self):
        policy = PINPolicy()
        low, high = make_entry(5), make_entry(6)
        policy.update_cache_sta_info(low, hit(1, tests=2))
        policy.update_cache_sta_info(high, hit(1, tests=50))
        assert policy.utility(high) > policy.utility(low)

    def test_pinc_ranks_by_seconds_saved(self):
        policy = PINCPolicy()
        cheap, expensive = make_entry(7), make_entry(8)
        policy.update_cache_sta_info(cheap, hit(1, tests=50, seconds=0.001))
        policy.update_cache_sta_info(expensive, hit(1, tests=2, seconds=2.0))
        assert policy.utility(expensive) > policy.utility(cheap)

    def test_pin_and_pinc_disagree_when_costs_skewed(self):
        # many cheap tests vs few expensive ones: PIN and PINC rank oppositely
        pin, pinc = PINPolicy(), PINCPolicy()
        many_cheap, few_costly = make_entry(9), make_entry(10)
        for policy in (pin, pinc):
            policy.update_cache_sta_info(many_cheap, hit(1, tests=100, seconds=0.01))
            policy.update_cache_sta_info(few_costly, hit(1, tests=1, seconds=5.0))
        # (statistics are shared objects, updated twice, but ordering is what matters)
        assert pin.utility(many_cheap) > pin.utility(few_costly)
        assert pinc.utility(few_costly) > pinc.utility(many_cheap)


class TestGetReplacedContent:
    def test_returns_least_useful_positions(self):
        policy = PINPolicy()
        entries = [make_entry(seed) for seed in range(4)]
        for index, entry in enumerate(entries):
            policy.update_cache_sta_info(entry, hit(1, tests=index * 10))
        victims = policy.get_replaced_content(entries, 2)
        assert victims == [0, 1]

    def test_count_larger_than_population(self):
        policy = LRUPolicy()
        entries = [make_entry(seed, clock=seed) for seed in range(3)]
        assert len(policy.get_replaced_content(entries, 10)) == 3

    def test_zero_count(self):
        policy = LRUPolicy()
        assert policy.get_replaced_content([make_entry(1)], 0) == []

    def test_hd_coalesces_pin_and_pinc_ranks(self):
        policy = HDPolicy()
        # entry A: great on PIN, middling on PINC; B: the reverse; C: worst on both
        a, b, c = make_entry(11), make_entry(12), make_entry(13)
        policy.update_cache_sta_info(a, hit(1, tests=100, seconds=0.5))
        policy.update_cache_sta_info(b, hit(1, tests=5, seconds=3.0))
        policy.update_cache_sta_info(c, hit(1, tests=1, seconds=0.001))
        victims = policy.get_replaced_content([a, b, c], 1)
        assert victims == [2]  # C loses on both dimensions

    def test_hd_middle_entry_survives_specialists(self):
        # an entry that is best on PIN and worst on PINC ties (by rank sum)
        # with one that is consistently middle — HD does not let one extreme
        # dimension dominate
        policy = HDPolicy()
        specialist, balanced = make_entry(14), make_entry(15)
        policy.update_cache_sta_info(specialist, hit(1, tests=100, seconds=0.001))
        policy.update_cache_sta_info(balanced, hit(1, tests=50, seconds=0.5))
        utilities = {policy.utility(specialist), policy.utility(balanced)}
        assert len(utilities) == 2  # standalone utilities still distinguish them


@pytest.mark.parametrize("name", ALL_POLICIES)
class TestUpdateCacheItems:
    def test_capacity_respected(self, name):
        policy = make_policy(name)
        store = CacheStore()
        incoming = [make_entry(seed, clock=seed) for seed in range(8)]
        report = policy.update_cache_items(store, incoming, capacity=5)
        assert len(store) <= 5
        assert report.capacity == 5
        assert len(report.admitted) >= 5

    def test_admission_below_capacity_keeps_everything(self, name):
        policy = make_policy(name)
        store = CacheStore()
        incoming = [make_entry(seed) for seed in range(3)]
        policy.update_cache_items(store, incoming, capacity=10)
        assert len(store) == 3

    def test_useful_resident_survives_fresh_incoming(self, name):
        policy = make_policy(name)
        store = CacheStore()
        veteran = make_entry(100, clock=50)
        policy.update_cache_sta_info(veteran, hit(60, tests=500, seconds=5.0))
        policy.update_cache_sta_info(veteran, hit(61, tests=500, seconds=5.0))
        store.add(veteran)
        incoming = [make_entry(seed, clock=seed) for seed in range(3)]
        policy.update_cache_items(store, incoming, capacity=1)
        assert veteran.entry_id in store

    def test_invalid_capacity_rejected(self, name):
        policy = make_policy(name)
        with pytest.raises(CacheError):
            policy.update_cache_items(CacheStore(), [make_entry(1)], capacity=0)

    def test_evicted_entries_reported(self, name):
        policy = make_policy(name)
        store = CacheStore()
        residents = [make_entry(seed, clock=0) for seed in range(3)]
        for entry in residents:
            store.add(entry)
        newcomer = make_entry(99, clock=10)
        policy.update_cache_sta_info(newcomer, hit(10, tests=100, seconds=1.0))
        report = policy.update_cache_items(store, [newcomer], capacity=3)
        assert len(store) == 3
        if report.evicted:
            assert all(entry_id not in store for entry_id in report.evicted)
            assert newcomer.entry_id in store


# --------------------------------------------------------------------------- #
# the victim oracle: one ranking per change of the resident set chooses what
# re-ranking for every incoming entry chose, and HD's threshold walk is its three sorts
# --------------------------------------------------------------------------- #
RELAXED = settings(max_examples=80, deadline=None,
                   suppress_health_check=[HealthCheck.too_slow])
PATTERN = molecule_graph(4, rng=1)

#: (tests saved, seconds saved, last used, admitted, hits) — few values, many ties
stat_rows = st.tuples(
    st.sampled_from([0, 0, 1, 3, 40]),
    st.sampled_from([0.0, 0.0, 0.001, 0.25, 2.0]),
    st.integers(0, 6),
    st.integers(0, 6),
    st.integers(0, 3),
)


def stat_entry(tests: int, seconds: float, last_used: int, admitted: int,
               hits: int) -> CacheEntry:
    entry = CacheEntry(graph=PATTERN, query_type=QueryType.SUBGRAPH,
                       answer=frozenset(), admitted_clock=admitted)
    entry.stats.tests_saved = tests
    entry.stats.seconds_saved = seconds
    entry.stats.last_used_clock = last_used
    entry.stats.hit_count = hits
    return entry


def counting(policy: ReplacementPolicy) -> list[int]:
    """Count the policy's ``get_replaced_content`` calls from now on."""
    calls = [0]
    rank = policy.get_replaced_content

    def counted(entries, count):
        calls[0] += 1
        return rank(entries, count)

    policy.get_replaced_content = counted
    return calls


class TestVictimOracle:
    @RELAXED
    @given(rows=st.lists(stat_rows, min_size=1, max_size=60),
           order=st.randoms(use_true_random=False))
    # a three-way tie at the walk's threshold, won by an entry met at depth 1
    @example(rows=[(1, 0.25, 0, 0, 0), (0, 2.0, 0, 0, 0), (3, 0.0, 0, 0, 0)],
             order=random.Random(0))
    def test_hd_ranking_is_the_three_sort_ranking(self, rows, order):
        policy = HDPolicy()
        for entries in ([stat_entry(*row) for row in rows],
                        [stat_entry(0, 0.0, 0, 0, 0) for _ in rows]):
            order.shuffle(entries)  # positions are not entry-id order
            for count in range(1, len(entries) + 1):
                assert (policy.get_replaced_content(entries, count)
                        == reference_hd_ranking(policy, entries, count))

    @RELAXED
    @given(residents=st.lists(stat_rows, max_size=12),
           incoming=st.lists(stat_rows, min_size=1, max_size=12),
           capacity=st.integers(1, 12),
           offer_a_resident=st.booleans(),
           order=st.randoms(use_true_random=False))
    def test_every_policy_evicts_what_reranking_evicts(
            self, residents, incoming, capacity, offer_a_resident, order):
        for name in available_policies():
            resident_entries = [stat_entry(*row) for row in residents[:capacity]]
            order.shuffle(resident_entries)
            incoming_entries = [stat_entry(*row) for row in incoming]
            if offer_a_resident and resident_entries:
                incoming_entries.insert(1, resident_entries[0])
            ours, reference = CacheStore(), CacheStore()
            for entry in resident_entries:
                ours.add(entry)
                reference.add(entry)
            oracle = make_policy(name)
            rank = partial(reference_hd_ranking, oracle) if name == "HD" else None
            expected = reference_update_cache_items(
                oracle, reference, incoming_entries, capacity, rank)
            policy = make_policy(name)
            calls = counting(policy)
            report = policy.update_cache_items(ours, incoming_entries, capacity)
            assert report == expected, name
            assert [e.entry_id for e in ours] == [e.entry_id for e in reference]
            assert ours._index.members() == [e.entry_id for e in ours]
            # a victim is picked at most once per change of the resident set
            assert calls[0] <= 1 + len(report.admitted)

    @pytest.mark.parametrize("name", ["LRU", "POP", "PIN", "PINC", "HD", "FIFO"])
    def test_a_flush_that_rejects_everything_ranks_once(self, name):
        policy = make_policy(name)
        store = CacheStore()
        for _ in range(5):
            store.add(stat_entry(10, 1.0, 60, 50, 3))
        calls = counting(policy)
        incoming = [stat_entry(0, 0.0, 1, 1, 0) for _ in range(10)]
        report = policy.update_cache_items(store, incoming, capacity=5)
        assert report.admitted == report.evicted == []
        assert calls[0] == 1


class TestNetChangeRound:
    @pytest.mark.parametrize("name", ALL_POLICIES)
    def test_newcomers_that_evict_each_other_never_reach_the_index(self, name):
        """A window of fresh entries over zero-savings residents: the later
        newcomers evict the earlier ones within the round, and the store's
        index sees only the net change."""
        residents = [stat_entry(0, 0.0, 0, 0, 0) for _ in range(3)]
        incoming = [stat_entry(0, 0.0, clock, clock, 0) for clock in range(1, 8)]
        ours, reference = CacheStore(), CacheStore()
        for entry in residents:
            ours.add(entry)
            reference.add(entry)
        index = ours._index
        with mock.patch.object(index, "add", wraps=index.add) as add, \
                mock.patch.object(index, "remove", wraps=index.remove) as remove:
            report = make_policy(name).update_cache_items(ours, incoming, capacity=3)

        assert report == reference_update_cache_items(make_policy(name), reference,
                                                      incoming, capacity=3)
        newcomers = {entry.entry_id for entry in incoming}
        assert newcomers & set(report.evicted)  # they did evict each other
        survivors = [entry_id for entry_id in report.admitted
                     if entry_id not in report.evicted]
        departed = [entry.entry_id for entry in residents
                    if entry.entry_id in report.evicted]
        assert (add.call_count, remove.call_count) == (len(survivors), len(departed))
        assert [e.entry_id for e in ours] == survivors == index.members()


class TestRegistry:
    def test_builtin_policies_available(self):
        assert set(ALL_POLICIES) <= set(available_policies())

    def test_make_policy_case_insensitive(self):
        assert isinstance(make_policy("lru"), LRUPolicy)
        assert isinstance(make_policy("Hd"), HDPolicy)

    def test_unknown_policy(self):
        with pytest.raises(UnknownPolicyError):
            make_policy("CLOCK")

    def test_register_custom_policy(self):
        class SizePolicy(ReplacementPolicy):
            """Developer-extension example from §3.3: keep the largest graphs."""

            name = "SIZE"

            def utility(self, entry):
                return float(entry.num_vertices)

        register_policy("SIZE", SizePolicy, overwrite=True)
        assert "SIZE" in available_policies()
        policy = make_policy("size")
        big = CacheEntry(
            graph=molecule_graph(9, rng=20), query_type=QueryType.SUBGRAPH, answer=frozenset()
        )
        small = CacheEntry(
            graph=molecule_graph(4, rng=21), query_type=QueryType.SUBGRAPH, answer=frozenset()
        )
        assert policy.utility(big) > policy.utility(small)

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ValueError):
            register_policy("LRU", LRUPolicy)
