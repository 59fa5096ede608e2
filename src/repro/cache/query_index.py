"""Index over the *cached queries* (the iGQ component underpinning GC).

GC must quickly find, among the cached queries, the ones that could be
subgraphs or supergraphs of a newly arrived query.  This is the dynamic
instance of :class:`~repro.index.containment.ContainmentIndex`: resident
entries are its members, grouped by query type (a cached subgraph query's
answer says nothing about a supergraph query), and it answers three
screening questions for entries of the new query's type:

* which cached entries might *contain* the new query (sub-case candidates),
* which cached entries might be *contained in* it (super-case candidates),
* which cached entries might be *isomorphic* to it (exact-match candidates).

Screening is by containment of label-path multisets up to
:data:`CACHE_FEATURE_LENGTH` edges (plus cheap invariants) — a restriction of
what the dataset filter already enumerated for the query, read from the
graph's remembered analysis (:func:`~repro.features.paths.path_features`),
as is the exact-match key.  The definitive answer is produced later with
real sub-iso "probe" tests in :meth:`GraphCache.lookup`.  Screening must
therefore never reject a true hit — the same no-false-dismissal contract as
the dataset filter.
"""

from __future__ import annotations

from collections import Counter

from repro.cache.entry import CacheEntry
from repro.errors import CacheError
from repro.features.base import FeatureKey
from repro.features.paths import path_features
from repro.graph.canonical import quick_containment_screen
from repro.graph.graph import Graph
from repro.index.base import estimate_object_bytes
from repro.index.containment import ContainmentIndex
from repro.query_model import ExactKey, QueryType, exact_key

#: Longest label path (in edges) the cached queries are indexed by.
CACHE_FEATURE_LENGTH = 2


class CachedQueryIndex:
    """Dynamic feature index over the cached query graphs."""

    def __init__(self) -> None:
        #: entry id → entry, in the order entries were added: screened
        #: candidates keep it, so a lookup's candidate lists are deterministic.
        self._entries: dict[int, CacheEntry] = {}
        self._index = ContainmentIndex()
        #: exact-match key → its entries (by id), oldest first.  Duplicates of
        #: one pattern can be resident, and which one an exact hit credits
        #: steers replacement.
        self._exact: dict[ExactKey, dict[int, CacheEntry]] = {}

    # ------------------------------------------------------------------ #
    # maintenance
    # ------------------------------------------------------------------ #
    def add(self, entry: CacheEntry) -> None:
        """Add a cached entry under its pattern's features and exact key."""
        if entry.entry_id in self._entries:
            raise CacheError(f"entry {entry.entry_id} is already indexed")
        entry.features = path_features(entry.graph, CACHE_FEATURE_LENGTH)
        self._entries[entry.entry_id] = entry
        self._index.add(entry.entry_id, entry.features, group=entry.query_type)
        key = exact_key(entry.graph, entry.query_type)
        self._exact.setdefault(key, {})[entry.entry_id] = entry

    def remove(self, entry_id: int) -> None:
        """Remove a cached entry from the index."""
        entry = self._entries.pop(entry_id, None)
        if entry is None:
            raise CacheError(f"entry {entry_id} is not indexed")
        self._index.remove(entry_id)
        key = exact_key(entry.graph, entry.query_type)
        del self._exact[key][entry_id]
        if not self._exact[key]:
            del self._exact[key]

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, entry_id: int) -> bool:
        return entry_id in self._entries

    def entries(self) -> list[CacheEntry]:
        """All indexed entries."""
        return list(self._entries.values())

    # ------------------------------------------------------------------ #
    # screening
    # ------------------------------------------------------------------ #
    def sub_case_candidates(
        self, query_graph: Graph, features: Counter[FeatureKey], query_type: QueryType
    ) -> list[CacheEntry]:
        """Cached entries that might *contain* the new query (query ⊆ entry).

        ``features`` is ``path_features(query_graph, CACHE_FEATURE_LENGTH)``.
        """
        screened = self._index.containing(features, group=query_type)
        return [
            entry
            for entry_id, entry in self._entries.items()
            if entry_id in screened and quick_containment_screen(query_graph, entry.graph)
        ]

    def super_case_candidates(
        self, query_graph: Graph, features: Counter[FeatureKey], query_type: QueryType
    ) -> list[CacheEntry]:
        """Cached entries that might be *contained in* the new query (entry ⊆ query)."""
        screened = self._index.contained_in(features, group=query_type)
        return [
            entry
            for entry_id, entry in self._entries.items()
            if entry_id in screened and quick_containment_screen(entry.graph, query_graph)
        ]

    def exact_candidates(self, query_graph: Graph, query_type: QueryType) -> list[CacheEntry]:
        """Cached entries that might be isomorphic to the new query, oldest first."""
        return list(self._exact.get(exact_key(query_graph, query_type), {}).values())

    # ------------------------------------------------------------------ #
    # accounting
    # ------------------------------------------------------------------ #
    def memory_bytes(self) -> int:
        """Measured footprint of the index tables (entries are owned by the store)."""
        return self._index.memory_bytes() + estimate_object_bytes((self._entries, self._exact))
