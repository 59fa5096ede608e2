"""The cache store: the one table of resident cached queries.

Replacement policies admit and evict through :meth:`CacheStore.add` and
:meth:`CacheStore.remove`; nothing else lists the resident entries.  Each
entry is indexed as it joins, by its pattern's label-path multiset up to
:data:`CACHE_FEATURE_LENGTH` edges, in a
:class:`~repro.index.containment.ContainmentIndex` grouped by query type (a
cached subgraph query's answer says nothing about a supergraph query).  That
is the dynamic instance of the index the dataset filter uses (the iGQ
component underpinning GC), and it answers the cache's three screening
questions for entries of the new query's type, oldest entry first:

* which entries might be *isomorphic* to the new query — equal multisets
  (exact-match candidates);
* which might *contain* it — multiset containment (sub-case candidates);
* which might be *contained in* it (super-case candidates).

The multisets are read from the graphs' remembered analysis
(:func:`~repro.features.paths.path_features`), a restriction of what the
dataset filter already enumerated for the query.  Screening must never reject
a true hit — the same no-false-dismissal contract as the dataset filter — and
:meth:`GraphCache.lookup` confirms each candidate it probes with one sub-iso
probe test (for an exact candidate, of equal size and with equal edge labels,
that test decides isomorphism; a sub or super candidate whose answer can no
longer change the pruning is not probed).
An entry is removed by id, never re-derived from its graph.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Iterator

from repro.cache.entry import CacheEntry
from repro.errors import CacheError
from repro.features.base import FeatureKey
from repro.features.paths import path_features
from repro.graph.graph import Graph
from repro.index.containment import ContainmentIndex
from repro.query_model import QueryType

#: Longest label path (in edges) the cached queries are indexed by.
CACHE_FEATURE_LENGTH = 2


def _may_contain(pattern: Graph, host: Graph) -> bool:
    """Cheap necessary conditions for ``pattern ⊆ host``: vertex and edge
    counts, then per-label degrees (whose degree-0 row is the label multiset)."""
    return (pattern.num_vertices <= host.num_vertices
            and pattern.num_edges <= host.num_edges
            and pattern.compiled().degree_profile_fits(host.compiled()))


class CacheStore:
    """Insertion-ordered entry_id → :class:`CacheEntry`, indexed for screening."""

    def __init__(self) -> None:
        self._entries: dict[int, CacheEntry] = {}
        self._index = ContainmentIndex()

    def add(self, entry: CacheEntry) -> None:
        """Insert a new entry under its pattern's features; duplicate ids are rejected."""
        if entry.entry_id in self._entries:
            raise CacheError(f"entry id {entry.entry_id} is already cached")
        entry.features = path_features(entry.graph, CACHE_FEATURE_LENGTH)
        self._index.add(entry.entry_id, entry.features, group=entry.query_type)
        self._entries[entry.entry_id] = entry

    def remove(self, entry_id: int) -> CacheEntry:
        """Remove and return an entry by id."""
        try:
            entry = self._entries.pop(entry_id)
        except KeyError:
            raise CacheError(f"entry id {entry_id} is not cached") from None
        self._index.remove(entry_id)
        return entry

    def __contains__(self, entry_id: int) -> bool:
        return entry_id in self._entries

    def __len__(self) -> int:
        return len(self._entries)

    def __iter__(self) -> Iterator[CacheEntry]:
        return iter(self._entries.values())

    def entries(self) -> list[CacheEntry]:
        """All entries in insertion order."""
        return list(self._entries.values())

    # ------------------------------------------------------------------ #
    # screening
    # ------------------------------------------------------------------ #
    def exact_candidates(
        self, features: Counter[FeatureKey], query_type: QueryType
    ) -> list[CacheEntry]:
        """Entries that might be isomorphic to the new query, oldest first.

        ``features`` is ``path_features(query_graph, CACHE_FEATURE_LENGTH)``;
        equal multisets are necessary for isomorphism (and imply equal vertex
        and edge counts), not sufficient.
        """
        return self._oldest_first(self._index.equal_to(features, group=query_type))

    def sub_case_candidates(
        self, query_graph: Graph, features: Counter[FeatureKey], query_type: QueryType
    ) -> list[CacheEntry]:
        """Entries that might *contain* the new query (query ⊆ entry)."""
        screened = self._index.containing(features, group=query_type)
        return [
            entry for entry in self._oldest_first(screened)
            if _may_contain(query_graph, entry.graph)
        ]

    def super_case_candidates(
        self, query_graph: Graph, features: Counter[FeatureKey], query_type: QueryType
    ) -> list[CacheEntry]:
        """Entries that might be *contained in* the new query (entry ⊆ query)."""
        screened = self._index.contained_in(features, group=query_type)
        return [
            entry for entry in self._oldest_first(screened)
            if _may_contain(entry.graph, query_graph)
        ]

    def _oldest_first(self, screened: set[int]) -> list[CacheEntry]:
        if len(screened) <= 1:
            return [self._entries[entry_id] for entry_id in screened]
        return [entry for entry_id, entry in self._entries.items() if entry_id in screened]

    def memory_bytes(self) -> int:
        """Approximate footprint of the cached entries plus their index."""
        return (sum(entry.memory_bytes() for entry in self._entries.values())
                + self._index.memory_bytes())
