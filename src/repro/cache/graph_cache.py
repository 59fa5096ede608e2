"""The Cache Manager: the graph cache proper.

:class:`GraphCache` ties together the store of cached queries (the one
resident table, which also screens them), the exact and sub/super-case
probes, the admission window and the replacement policy (eviction).  It
knows nothing about Method M or the dataset — the Query Processing Runtime
(:mod:`repro.runtime`) orchestrates both sides.  A cached entry keeps the
submitted pattern graph by reference; editing it afterwards is unsupported.

The public operations, in the order the runtime calls them per query:

1. :meth:`lookup`  — find exact/sub/super hits for a new query;
2. :meth:`credit`  — after the query completes, credit the contributing
   cached entries with the savings they produced (``update_cache_sta_info``);
3. :meth:`offer`   — offer the executed query for admission; when the window
   fills up the replacement policy runs (``update_cache_items``).

GC does not insert every executed query into the cache immediately.  Executed
queries accumulate in a *window*; when it has counted ``window_size`` of them,
the whole batch is handed to the replacement policy, which decides which of
the incoming queries displace which resident cached graphs (this batched
behaviour is what the demo's Workload Run visualises: "each graph cache is
full of 50 previously executed queries, 10 of which are replaced by the newly
coming queries in the workload").  A query answered by an exact hit counts
toward the window but adds no entry: the cache holds one copy per query.

All three run on the thread that submitted the query; the window already
batches replacement, and a round applies only its net change to the store.
One mutex guards every structure, the clock included, for concurrent callers
(library threads, a server's handler threads).  A reader-writer lock would
buy nothing: under the GIL two lookups never execute at once, and one
(≈ 0.1 ms) is seldom even interleaved with another, since the interpreter
switches threads every 5 ms; each of its round trips costs several times a
mutex's.
"""

from __future__ import annotations

import threading
import time
from collections import Counter
from dataclasses import dataclass, field

from repro.cache.entry import CacheEntry
from repro.cache.policies.base import (
    EvictionReport,
    HitContribution,
    HitKind,
    ReplacementPolicy,
)
from repro.cache.policies.registry import make_policy
from repro.cache.store import CACHE_FEATURE_LENGTH, CacheStore
from repro.errors import CacheCapacityError, ConfigurationError
from repro.features.paths import path_features
from repro.graph.graph import Graph
from repro.index.base import GraphId
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
    #: Resident entries when the lookup ran, read under the cache's mutex.
    cache_population: int = 0


def _smallest_first(entry: CacheEntry) -> tuple[int, int, int]:
    return entry.num_vertices, entry.num_edges, entry.entry_id


def _largest_first(entry: CacheEntry) -> tuple[int, int, int]:
    return -entry.num_vertices, -entry.num_edges, entry.entry_id


def _edge_label_counts(graph: Graph) -> Counter:
    """The multiset of a graph's edge labels; unlabelled edges are not counted."""
    return Counter((graph.compiled().edge_labels or {}).values())


class GraphCache:
    """The GC cache kernel (Cache Manager + Query Processing helpers)."""

    def __init__(
        self,
        capacity: int = 50,
        policy: ReplacementPolicy | str = "HD",
        window_size: int = 10,
        semantic_hits: bool = True,
    ) -> None:
        if capacity < 1:
            raise CacheCapacityError("cache capacity must be at least 1")
        if window_size < 1:
            raise ConfigurationError("window_size must be at least 1")
        self.capacity = capacity
        self.window_size = window_size
        #: False degrades GC to a traditional exact-match-only cache — the
        #: baseline the paper contrasts with.
        self.semantic_hits = semantic_hits
        self.policy = policy if isinstance(policy, ReplacementPolicy) else make_policy(policy)
        self.store = CacheStore()
        self._matcher = VF2Matcher()
        #: Entries of the executed queries waiting for the window to fill,
        #: and how many executed queries (exact hits too) it has counted.
        self._pending: list[CacheEntry] = []
        self._window_count = 0
        self._clock = 0
        self._eviction_reports: list[EvictionReport] = []
        #: The one mutex guarding every cache structure and the clock.
        self._lock = threading.Lock()

    # ------------------------------------------------------------------ #
    # clock
    # ------------------------------------------------------------------ #
    @property
    def clock(self) -> int:
        """Logical clock: number of lookups performed so far."""
        return self._clock

    def tick(self) -> int:
        """Advance the logical clock (one tick per processed query)."""
        with self._lock:
            self._clock += 1
            return self._clock

    # ------------------------------------------------------------------ #
    # lookup
    # ------------------------------------------------------------------ #
    def lookup(self, query: Query) -> CacheLookup:
        """Find exact, sub-case and super-case hits for a new query.

        Only cached entries with the *same query semantics* are considered:
        a cached subgraph query's answer set says nothing directly about a
        supergraph query, and vice versa.  A lookup holds the cache's mutex
        throughout; it also reads the population the query saw.
        """
        with self._lock:
            return self._lookup_unlocked(query)

    def _lookup_unlocked(self, query: Query) -> CacheLookup:
        lookup = CacheLookup(query_id=query.query_id, cache_population=len(self.store))
        if lookup.cache_population == 0:
            return lookup
        graph = query.graph
        features = path_features(graph, CACHE_FEATURE_LENGTH)

        # exact match first: a confirmed exact hit answers the query outright.
        # Equal label-path multisets mean equal vertex and edge counts, so an
        # embedding is a bijection on vertices and on edges.  The kernel reads
        # an unlabelled pattern edge as a wildcard; with equal edge-label
        # multisets too, each label's edges map onto that label's edges and
        # the unlabelled ones onto the unlabelled ones, so the embedding is
        # an isomorphism: one probe test decides each candidate.  Equal
        # multisets also prove sizes and labels, so the probe skips that
        # screen (``screened``), as do the sub/super probes below.
        start = time.perf_counter()
        for entry in self.store.exact_candidates(features, query.query_type):
            lookup.probe_tests += 1
            if (_edge_label_counts(entry.graph) == _edge_label_counts(graph)
                    and self._matcher.matches(graph, [entry.graph], True, True)[0]):
                lookup.exact_entry = entry
                break
        lookup.probe_seconds = time.perf_counter() - start

        if lookup.exact_entry is not None or not self.semantic_hits:
            return lookup
        sub_candidates = self.store.sub_case_candidates(graph, features, query.query_type)
        super_candidates = self.store.super_case_candidates(graph, features, query.query_type)
        lookup.screened_sub_candidates = len(sub_candidates)
        lookup.screened_super_candidates = len(super_candidates)
        self._probe(query, sub_candidates, super_candidates, lookup)
        return lookup

    def _probe(
        self,
        query: Query,
        sub_candidates: list[CacheEntry],
        super_candidates: list[CacheEntry],
        lookup: CacheLookup,
    ) -> None:
        """Confirm, one probe test each, the candidates that can still prune.

        A sub-case hit is a cached query containing the new one
        (``graph ⊆ cached``); a super-case hit is one contained in it
        (``cached ⊆ graph``).  What a hit does to the pruning depends on the
        query type (see :mod:`repro.cache.pruner`): a *guarantee* hit adds
        its answer to the union ``S``, a *prune* hit cuts the candidates to
        the intersection of the prune hits' answers.  For a subgraph query
        the sub candidates guarantee and the super candidates prune; a
        supergraph query swaps the two.  A candidate that could not change
        that outcome even if it hit is skipped without a test: a guarantee
        candidate whose answer is inside the union of the earlier guarantee
        hits, a prune candidate whose answer contains the intersection of the
        earlier prune hits.  A skipped candidate is not a hit and earns no
        credit.

        Sub candidates are probed smallest first (a smaller container is
        cheaper to test and, for a subgraph query, its answer set is the
        larger guarantee), super candidates largest first (a larger
        contained query prunes harder); ties go to the older entry.  Each
        probe is one ``matches`` call, since whether the next candidate is
        tested depends on this one's answer; the store's ``_may_contain``
        screen has proved sizes and labels (``screened``).  The
        probing cost is GC's own overhead, which the statistics keep apart
        from the dataset verification cost it saves.
        """
        start = time.perf_counter()
        graph, matches = query.graph, self._matcher.matches
        subs = (sorted(sub_candidates, key=_smallest_first), lookup.sub_hits,
                lambda entry: matches(graph, [entry.graph], True, True)[0])
        supers = (sorted(super_candidates, key=_largest_first), lookup.super_hits,
                  lambda entry: matches(graph, [entry.graph], False, True)[0])
        subgraph_query = query.query_type is QueryType.SUBGRAPH
        guarantee, prune = (subs, supers) if subgraph_query else (supers, subs)

        covered: set[GraphId] = set()  # S so far
        candidates, hits, confirm = guarantee
        for entry in candidates:
            if entry.answer <= covered:
                continue
            lookup.probe_tests += 1
            if confirm(entry):
                hits.append(entry)
                covered |= entry.answer
        allowed: frozenset[GraphId] | None = None  # None: nothing pruned yet
        candidates, hits, confirm = prune
        for entry in candidates:
            if allowed is not None and allowed <= entry.answer:
                continue
            lookup.probe_tests += 1
            if confirm(entry):
                hits.append(entry)
                allowed = entry.answer if allowed is None else allowed & entry.answer
        lookup.probe_seconds += time.perf_counter() - start

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
        with self._lock:
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
        observed_test_cost: float,
        clock: int | None = None,
        baseline_tests: int = 0,
        exact_hit: bool = False,
    ) -> EvictionReport | None:
        """Offer an executed query for admission through the window.

        Every executed query advances the window by one; the window flushes
        once it has counted ``window_size`` of them.  A query answered by an
        ``exact_hit`` adds no entry (its entry is already resident), so it
        only advances the window.  ``baseline_tests`` is the query's
        ``|C_M|``, which an exact hit on the new entry will credit.  Returns
        the eviction report when this offer flushed a window holding entries
        (i.e. the replacement policy ran, on the calling thread), otherwise
        ``None``.  The entry keeps ``query.graph`` by reference: editing that
        graph afterwards is unsupported.
        """
        if exact_hit:
            with self._lock:
                return self._count_unlocked()
        clock = self._clock if clock is None else clock
        entry = CacheEntry(
            graph=query.graph,
            query_type=query.query_type,
            answer=frozenset(answer),
            admitted_clock=clock,
            observed_test_cost=observed_test_cost,
            baseline_tests=baseline_tests,
        )
        entry.stats.last_used_clock = clock
        return self.apply_offer(entry)

    def apply_offer(self, entry: CacheEntry) -> EvictionReport | None:
        """Admit one built entry (window + replacement) under the mutex.

        The second half of :meth:`offer`, kept by name because the gcbench
        tracer wraps it.
        """
        with self._lock:
            self._pending.append(entry)
            return self._count_unlocked()

    def _count_unlocked(self) -> EvictionReport | None:
        """Count one executed query; flush the window once it is full."""
        self._window_count += 1
        if self._window_count < self.window_size:
            return None
        return self._flush_unlocked()

    def flush_window(self) -> EvictionReport | None:
        """Force the pending window into the cache (end of a workload)."""
        with self._lock:
            return self._flush_unlocked()

    def _flush_unlocked(self) -> EvictionReport | None:
        """Close the window; an empty one runs no replacement round."""
        batch, self._pending, self._window_count = self._pending, [], 0
        if not batch:
            return None
        report = self.policy.update_cache_items(self.store, batch, self.capacity)
        self._eviction_reports.append(report)
        return report

    def warm(self, entries: list[CacheEntry]) -> int:
        """Pre-populate the cache (used to reproduce the demo's warm cache).

        Entries are inserted directly (bypassing the window) up to capacity.
        The logical clock advances to the latest clock an inserted entry
        carries, so entries admitted afterwards are newer than restored ones
        (a snapshot keeps the clocks of the process that wrote it).  Returns
        the number of entries inserted.
        """
        inserted = 0
        with self._lock:
            for entry in entries:
                if len(self.store) >= self.capacity:
                    break
                if entry.entry_id in self.store:
                    continue
                self.store.add(entry)
                inserted += 1
                self._clock = max(self._clock, entry.admitted_clock,
                                  entry.stats.last_used_clock)
        return inserted

    # ------------------------------------------------------------------ #
    # introspection
    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        with self._lock:
            return len(self.store)

    def entries(self) -> list[CacheEntry]:
        """All cached entries in insertion order."""
        with self._lock:
            return self.store.entries()

    def eviction_rounds(self) -> int:
        """How many replacement rounds have run so far."""
        with self._lock:
            return len(self._eviction_reports)

    def eviction_reports(self, since: int = 0) -> list[EvictionReport]:
        """The replacement rounds performed so far, from round ``since`` on."""
        with self._lock:
            return self._eviction_reports[since:]

    def memory_bytes(self) -> int:
        """Approximate footprint of the cache (entries + their index)."""
        with self._lock:
            return self.store.memory_bytes()

    def describe(self) -> dict[str, object]:
        """Configuration and population summary."""
        with self._lock:
            return {
                "capacity": self.capacity,
                "policy": self.policy.name,
                "window_size": self.window_size,
                "population": len(self.store),
                "memory_bytes": self.store.memory_bytes(),
            }
