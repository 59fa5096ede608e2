"""The Cache Manager: the graph cache proper.

:class:`GraphCache` ties together the store of cached queries, the cached
query index (screening), the sub/super case processors (probing), the window
manager (admission) and the replacement policy (eviction).  It knows nothing
about Method M or the dataset — the Query Processing Runtime
(:mod:`repro.runtime`) orchestrates both sides.

The public operations, in the order the runtime calls them per query:

1. :meth:`lookup`  — find exact/sub/super hits for a new query;
2. :meth:`credit`  — after the query completes, credit the contributing
   cached entries with the savings they produced (``update_cache_sta_info``);
3. :meth:`offer`   — offer the executed query for admission; when the window
   fills up the replacement policy runs (``update_cache_items``).

All three run on the thread that submitted the query; the window already
batches replacement.  The reader-writer lock exists for concurrent callers.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field

from repro.cache.entry import CacheEntry
from repro.cache.locks import ReadWriteLock
from repro.cache.policies.base import (
    EvictionReport,
    HitContribution,
    HitKind,
    ReplacementPolicy,
)
from repro.cache.policies.registry import make_policy
from repro.cache.query_index import CACHE_FEATURE_LENGTH, CachedQueryIndex
from repro.cache.store import CacheStore
from repro.cache.subcase import SubCaseProcessor
from repro.cache.supercase import SuperCaseProcessor
from repro.cache.window import WindowManager
from repro.errors import CacheCapacityError
from repro.features.paths import path_features
from repro.graph.canonical import definitely_isomorphic
from repro.graph.graph import Graph
from repro.index.base import GraphId
from repro.isomorphism.base import SubgraphMatcher
from repro.isomorphism.vf2 import VF2Matcher
from repro.query_model import Query, QueryType


@dataclass
class CacheLookup:
    """Everything the cache found out about a new query."""

    query_id: int
    exact_entry: CacheEntry | None = None
    sub_hits: list[CacheEntry] = field(default_factory=list)
    super_hits: list[CacheEntry] = field(default_factory=list)
    probe_tests: int = 0
    probe_seconds: float = 0.0
    screened_sub_candidates: int = 0
    screened_super_candidates: int = 0

    @property
    def any_hit(self) -> bool:
        """True when the lookup produced at least one usable hit."""
        return bool(self.exact_entry or self.sub_hits or self.super_hits)


class GraphCache:
    """The GC cache kernel (Cache Manager + Query Processing helpers)."""

    def __init__(
        self,
        capacity: int = 50,
        policy: ReplacementPolicy | str = "HD",
        window_size: int = 10,
        min_tests_to_admit: int = 0,
        probe_matcher: SubgraphMatcher | None = None,
        max_sub_hits: int | None = None,
        max_super_hits: int | None = None,
        enable_sub_case: bool = True,
        enable_super_case: bool = True,
        memory_budget_bytes: int | None = None,
    ) -> None:
        if capacity < 1:
            raise CacheCapacityError("cache capacity must be at least 1")
        if memory_budget_bytes is not None and memory_budget_bytes <= 0:
            raise CacheCapacityError("memory_budget_bytes must be positive when set")
        self.capacity = capacity
        #: Disabling sub/super cases degrades GC to a traditional
        #: exact-match-only cache — the baseline the paper contrasts with.
        self.enable_sub_case = enable_sub_case
        self.enable_super_case = enable_super_case
        #: Optional byte budget: admission shrinks the effective capacity so
        #: the resident entries stay within this many (approximate) bytes.
        self.memory_budget_bytes = memory_budget_bytes
        self.policy = policy if isinstance(policy, ReplacementPolicy) else make_policy(policy)
        self.store = CacheStore()
        self.window = WindowManager(window_size=window_size, min_tests_to_admit=min_tests_to_admit)
        self.query_index = CachedQueryIndex()
        matcher = probe_matcher or VF2Matcher()
        self.sub_processor = SubCaseProcessor(matcher, max_hits=max_sub_hits)
        self.super_processor = SuperCaseProcessor(matcher, max_hits=max_super_hits)
        self._probe_matcher = matcher
        self._clock = 0
        self._eviction_reports: list[EvictionReport] = []
        #: Reader-writer lock guarding every cache structure: lookups share
        #: it, crediting/admission/replacement take it exclusively.
        self._lock = ReadWriteLock()
        self._clock_lock = threading.Lock()

    # ------------------------------------------------------------------ #
    # clock
    # ------------------------------------------------------------------ #
    @property
    def clock(self) -> int:
        """Logical clock: number of lookups performed so far."""
        return self._clock

    def tick(self) -> int:
        """Advance the logical clock (one tick per processed query)."""
        with self._clock_lock:
            self._clock += 1
            return self._clock

    # ------------------------------------------------------------------ #
    # lookup
    # ------------------------------------------------------------------ #
    def lookup(self, query: Query) -> CacheLookup:
        """Find exact, sub-case and super-case hits for a new query.

        Only cached entries with the *same query semantics* are considered:
        a cached subgraph query's answer set says nothing directly about a
        supergraph query, and vice versa.  Lookups hold the read lock, so
        any number of concurrent queries can probe the cache at once.
        """
        with self._lock.read_locked():
            return self._lookup_unlocked(query)

    def _lookup_unlocked(self, query: Query) -> CacheLookup:
        lookup = CacheLookup(query_id=query.query_id)
        if len(self.store) == 0:
            return lookup
        graph = query.graph

        # exact match first: a confirmed exact hit answers the query outright
        for entry in self.query_index.exact_candidates(graph, query.query_type):
            decided = definitely_isomorphic(graph, entry.graph)
            if decided is None:
                lookup.probe_tests += 1
                decided = self._probe_matcher.is_subgraph(graph, entry.graph) and (
                    graph.num_vertices == entry.graph.num_vertices
                    and graph.num_edges == entry.graph.num_edges
                )
            if decided:
                lookup.exact_entry = entry
                return lookup

        if not (self.enable_sub_case or self.enable_super_case):
            return lookup
        features = path_features(graph, CACHE_FEATURE_LENGTH)
        sub_candidates = (
            self.query_index.sub_case_candidates(graph, features, query.query_type)
            if self.enable_sub_case
            else []
        )
        super_candidates = (
            self.query_index.super_case_candidates(graph, features, query.query_type)
            if self.enable_super_case
            else []
        )
        lookup.screened_sub_candidates = len(sub_candidates)
        lookup.screened_super_candidates = len(super_candidates)

        sub_outcome = self.sub_processor.find_hits(graph, sub_candidates)
        super_outcome = self.super_processor.find_hits(graph, super_candidates)
        lookup.sub_hits = sub_outcome.hits
        lookup.super_hits = super_outcome.hits
        lookup.probe_tests += sub_outcome.probe_tests + super_outcome.probe_tests
        lookup.probe_seconds += sub_outcome.probe_seconds + super_outcome.probe_seconds
        return lookup

    # ------------------------------------------------------------------ #
    # crediting
    # ------------------------------------------------------------------ #
    def credit(
        self,
        lookup: CacheLookup,
        per_hit_savings: dict[int, int],
        average_test_seconds: float,
        clock: int | None = None,
    ) -> None:
        """Credit every contributing entry with its savings.

        ``per_hit_savings`` maps entry id → dataset tests that hit saved on
        its own; the seconds credited are derived from the average cost of a
        dataset sub-iso test observed for this query (or, if no test ran,
        from the cost observed when the cached entry was originally created).
        """
        clock = self._clock if clock is None else clock
        contributions: list[tuple[CacheEntry, HitKind]] = []
        if lookup.exact_entry is not None:
            contributions.append((lookup.exact_entry, HitKind.EXACT))
        contributions.extend((entry, HitKind.SUB) for entry in lookup.sub_hits)
        contributions.extend((entry, HitKind.SUPER) for entry in lookup.super_hits)
        if not contributions:
            return
        with self._lock.write_locked():
            for entry, kind in contributions:
                tests_saved = per_hit_savings.get(entry.entry_id, 0)
                per_test_cost = average_test_seconds or entry.observed_test_cost
                contribution = HitContribution(
                    kind=kind,
                    clock=clock,
                    tests_saved=tests_saved,
                    seconds_saved=tests_saved * per_test_cost,
                )
                self.policy.update_cache_sta_info(entry, contribution)

    # ------------------------------------------------------------------ #
    # admission / replacement
    # ------------------------------------------------------------------ #
    def offer(
        self,
        query: Query,
        answer: set[GraphId],
        tests_performed: int,
        observed_test_cost: float,
        clock: int | None = None,
    ) -> EvictionReport | None:
        """Offer an executed query for admission through the window manager.

        Returns the eviction report when this offer filled the window (i.e.
        the replacement policy ran, on the calling thread), otherwise ``None``.
        """
        clock = self._clock if clock is None else clock
        entry = CacheEntry(
            graph=query.graph,
            query_type=query.query_type,
            answer=frozenset(answer),
            admitted_clock=clock,
            observed_test_cost=observed_test_cost,
        )
        entry.stats.last_used_clock = clock
        return self.apply_offer(entry, tests_performed)

    def apply_offer(self, entry: CacheEntry, tests_performed: int) -> EvictionReport | None:
        """Admit one built entry (window + replacement) under the write lock.

        The second half of :meth:`offer`, kept by name because the gcbench
        tracer wraps it.
        """
        with self._lock.write_locked():
            batch = self.window.offer(entry, tests_performed)
            return self._apply_replacement(batch) if batch is not None else None

    def flush_window(self) -> EvictionReport | None:
        """Force the pending window into the cache (end of a workload)."""
        with self._lock.write_locked():
            batch = self.window.flush()
            return self._apply_replacement(batch) if batch else None

    def _apply_replacement(self, batch: list[CacheEntry]) -> EvictionReport:
        # The query index follows the store by the exact delta of this round.
        # (The report's admitted/evicted lists are not that delta: an entry
        # admitted earlier in the batch may be evicted again by a later one.)
        before = set(self.store.entry_ids())
        report = self.policy.update_cache_items(self.store, batch, self.capacity)
        for entry_id in before.difference(self.store.entry_ids()):
            self.query_index.remove(entry_id)
        for entry in batch:
            if entry.entry_id in self.store and entry.entry_id not in self.query_index:
                self.query_index.add(entry)
        # The byte budget is checked after the index features are computed
        # (they are part of an entry's footprint).
        self._enforce_memory_budget(report)
        self._eviction_reports.append(report)
        return report

    def _enforce_memory_budget(self, report: EvictionReport) -> None:
        """Evict least-useful residents until the byte budget is respected."""
        if self.memory_budget_bytes is None:
            return
        while len(self.store) > 1 and self.store.memory_bytes() > self.memory_budget_bytes:
            residents = self.store.entries()
            victim_positions = self.policy.get_replaced_content(residents, 1)
            if not victim_positions:
                break
            victim = residents[victim_positions[0]]
            self.store.remove(victim.entry_id)
            self.query_index.remove(victim.entry_id)
            report.evicted.append(victim.entry_id)

    def warm(self, entries: list[CacheEntry]) -> None:
        """Pre-populate the cache (used to reproduce the demo's warm cache).

        Entries are inserted directly (bypassing the window) up to capacity.
        """
        with self._lock.write_locked():
            for entry in entries:
                if len(self.store) >= self.capacity:
                    break
                if entry.entry_id in self.store:
                    continue
                self.store.add(entry)
                self.query_index.add(entry)

    # ------------------------------------------------------------------ #
    # introspection
    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        with self._lock.read_locked():
            return len(self.store)

    def entries(self) -> list[CacheEntry]:
        """All cached entries in insertion order."""
        with self._lock.read_locked():
            return self.store.entries()

    def eviction_reports(self) -> list[EvictionReport]:
        """Every replacement round performed so far."""
        with self._lock.read_locked():
            return list(self._eviction_reports)

    def memory_bytes(self) -> int:
        """Approximate footprint of the cache (entries + query index)."""
        with self._lock.read_locked():
            return self._memory_bytes_unlocked()

    def _memory_bytes_unlocked(self) -> int:
        return self.store.memory_bytes() + self.query_index.memory_bytes()

    def describe(self) -> dict[str, object]:
        """Configuration and population summary."""
        with self._lock.read_locked():
            return {
                "capacity": self.capacity,
                "policy": self.policy.name,
                "window_size": self.window.window_size,
                "population": len(self.store),
                "memory_bytes": self._memory_bytes_unlocked(),
            }
