"""Replacement policy interface (the developer "Cache class" of Fig. 2(d)).

The paper's developer dashboard asks extension authors to override three
abstract methods; this class mirrors them with Pythonic names:

* ``update_cache_sta_info``  — update a cached graph's utility statistics when
  it contributes to accelerating another query;
* ``get_replaced_content``   — return the positions of the top-*x* cached
  graphs with the least utility (eviction candidates);
* ``update_cache_items``     — perform the actual replacement: evict the
  least-useful entries so newly executed queries fit.

Concrete policies normally only implement :meth:`utility`; the three methods
above have sensible default implementations driven by it.

Contract: ``get_replaced_content`` depends only on the resident entries it is
given (their order aside, since ties break on entry ids).  A replacement round
relies on it to pick a victim once per change of the resident set instead of
once per incoming entry: a rejected entry changes neither the residents nor
their statistics (crediting runs outside the round), so the victim stands.
A round applies only its net change to the :class:`CacheStore`: an entry
admitted and evicted within one round is never indexed.
"""

from __future__ import annotations

import abc
import enum
from dataclasses import dataclass, field
from collections.abc import Sequence

from repro.cache.entry import CacheEntry
from repro.cache.store import CacheStore
from repro.errors import CacheError


class HitKind(enum.Enum):
    """How a cached entry contributed to a new query."""

    SUB = "sub"        # the new query is a subgraph of the cached query
    SUPER = "super"    # the new query is a supergraph of the cached query
    EXACT = "exact"    # the new query is isomorphic to the cached query


@dataclass
class HitContribution:
    """The benefit one cached entry delivered to one new query."""

    kind: HitKind
    clock: int
    tests_saved: int = 0
    seconds_saved: float = 0.0


@dataclass
class EvictionReport:
    """Outcome of one replacement round (consumed by dashboards/tests)."""

    admitted: list[int] = field(default_factory=list)
    evicted: list[int] = field(default_factory=list)
    capacity: int = 0

    @property
    def num_admitted(self) -> int:
        return len(self.admitted)

    @property
    def num_evicted(self) -> int:
        return len(self.evicted)


class ReplacementPolicy(abc.ABC):
    """Base class for graph-cache replacement policies."""

    name: str = "abstract"

    # ------------------------------------------------------------------ #
    # statistics maintenance
    # ------------------------------------------------------------------ #
    def update_cache_sta_info(self, entry: CacheEntry, contribution: HitContribution) -> None:
        """Fold one hit's benefit into the entry's statistics.

        The default bookkeeping is shared by every built-in policy; policies
        that need extra state can override and call ``super()``.
        """
        stats = entry.stats
        stats.last_used_clock = max(stats.last_used_clock, contribution.clock)
        stats.hit_count += 1
        if contribution.kind is HitKind.SUB:
            stats.sub_hits += 1
        elif contribution.kind is HitKind.SUPER:
            stats.super_hits += 1
        else:
            stats.exact_hits += 1
        stats.tests_saved += contribution.tests_saved
        stats.seconds_saved += contribution.seconds_saved

    # ------------------------------------------------------------------ #
    # ranking
    # ------------------------------------------------------------------ #
    @abc.abstractmethod
    def utility(self, entry: CacheEntry) -> float:
        """Utility score of a cached entry: higher means more worth keeping."""

    def get_replaced_content(self, entries: Sequence[CacheEntry], count: int) -> list[int]:
        """Positions (indices into ``entries``) of the ``count`` least useful entries.

        Ties are broken towards evicting the least recently used, then the
        oldest admission, so every policy is deterministic.
        """
        if count <= 0:
            return []
        ranked = sorted(
            range(len(entries)),
            key=lambda position: (
                self.utility(entries[position]),
                entries[position].stats.last_used_clock,
                entries[position].admitted_clock,
                entries[position].entry_id,
            ),
        )
        return ranked[: min(count, len(entries))]

    # ------------------------------------------------------------------ #
    # replacement
    # ------------------------------------------------------------------ #
    def update_cache_items(
        self, store: CacheStore, incoming: Sequence[CacheEntry], capacity: int
    ) -> EvictionReport:
        """Admit ``incoming`` entries into ``store``, evicting as necessary.

        Admission is *utility aware*: when the cache is full, an incoming
        entry displaces the least useful resident (the victim) when its own
        utility is higher, or equal and it is no older than the victim;
        otherwise the incoming entry is rejected.  (A brand-new entry has
        whatever utility the policy assigns to its fresh statistics; for the
        built-in policies that makes new entries win against never-hit
        residents via recency tie-breaks.)  The victim is picked when first
        needed and again only after the resident set changes.

        Only the round's net change reaches the store: an evicted original
        resident leaves it at once, but a newcomer joins it only at the end
        of the round, in admission order, and only if no later newcomer
        evicted it.  That leaves the store in the order admitting and
        evicting one by one would have, without indexing an entry that no
        lookup could ever see.  The report still lists every admission and
        eviction in order.
        """
        if capacity <= 0:
            raise CacheError("cache capacity must be positive")
        report = EvictionReport(capacity=capacity)
        newcomers: dict[int, CacheEntry] = {}  # admission order
        victim: CacheEntry | None = None
        for entry in incoming:
            if entry.entry_id in store or entry.entry_id in newcomers:
                continue
            if len(store) + len(newcomers) < capacity:
                newcomers[entry.entry_id] = entry
                report.admitted.append(entry.entry_id)
                victim = None
                continue
            if victim is None:
                residents = store.entries() + list(newcomers.values())
                victim_positions = self.get_replaced_content(residents, 1)
                if not victim_positions:
                    continue
                victim = residents[victim_positions[0]]
                victim_utility = self.utility(victim)
            incoming_utility = self.utility(entry)
            should_replace = incoming_utility > victim_utility or (
                incoming_utility == victim_utility
                and entry.admitted_clock >= victim.admitted_clock
            )
            if should_replace:
                if newcomers.pop(victim.entry_id, None) is None:
                    store.remove(victim.entry_id)
                newcomers[entry.entry_id] = entry
                report.evicted.append(victim.entry_id)
                report.admitted.append(entry.entry_id)
                victim = None
        for entry in newcomers.values():
            store.add(entry)
        return report

    def describe(self) -> dict[str, object]:
        """Describe the policy for reports."""
        return {"name": self.name}
