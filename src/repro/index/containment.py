"""The containment index: one bit-sliced answer to GC's one recurring question.

Both the dataset filter (Method M's "F") and the cached-query screen (iGQ) ask
*whose feature multiset contains, or is contained in, this query's?*  (The
cache screen also asks *whose equals it?* for its exact-match candidates.)  Members
are numbered densely (a *slot*, reused after removal) and every set of
members is a Python int with one bit per slot, so the question is answered
for all members at once:

* per feature key a list of **levels**, ``levels[c - 1]`` = members holding
  the key at least ``c`` times — ``containing`` is one ``&`` chain over the
  query's ``(key, count)`` pairs;
* ``contained_in`` starts from the members with no more distinct keys than
  the query (members are bucketed by that number), clears, per query key, the
  level just *above* the query's count (members that exceed it), then
  dismisses members holding a key the query lacks in two parts.  The
  *common* keys a :meth:`ContainmentIndex.seal` remembered — those at least
  one member in :data:`COMMON_SHARE` holds — are cleared in one pass: the
  holder bitsets of those the query lacks are ``|``-ed and cleared with one
  ``&~``; the survivors' **key bitsets** are then checked for any other key
  the query lacks.  (Clearing *every* lacking key set-at-a-time touches
  thousands of holder bitsets per query and measured slower than the scan;
  the few common keys dismiss most members.)  ``add`` and ``remove`` forget
  what a seal remembered, so a changing index (the cache store's) always
  takes the plain scan.
* ``equal_to`` is the same walk with both bounds: it starts from the members
  with exactly the query's number of distinct keys and, per query key, keeps
  the level *at* the query's count and clears the one above it.

Members may be added to a *group*; a query is answered within one group (the
cache groups resident queries by query type).  Counts must be positive.

:class:`DatasetIndex` is the static instance — the Filter of every FTV
Method M, whose contract is **no false dismissals**: every graph containing
(subgraph query) or contained in (supergraph query) the query is a candidate,
which follows from any feature family that is monotone under subgraph
containment.  ``repro.cache.store.CacheStore`` holds the dynamic instance.
"""

from __future__ import annotations

from collections.abc import Hashable, Iterable, Mapping

from repro.errors import IndexError_
from repro.features.base import FeatureExtractor
from repro.graph.graph import Graph
from repro.index.base import GraphId, estimate_object_bytes
from repro.query_model import QueryType

#: A sealed index clears, set-at-a-time, the keys that at least one member in
#: this many holds.
COMMON_SHARE = 16


class ContainmentIndex:
    """Dynamic bit-sliced index over feature multisets."""

    def __init__(self) -> None:
        self._key_number: dict[Hashable, int] = {}
        #: key number → levels; a level is a bitset over member slots.
        self._levels: list[list[int]] = []
        #: slot → bitset over key numbers / the member in the slot (id table).
        self._member_keys: list[int] = []
        self._members: list[Hashable] = []
        self._slot_of: dict[Hashable, int] = {}
        self._free: list[int] = []
        #: group → bitset of the live members added to it; number of distinct
        #: keys → bitset of the live members with exactly that many.
        self._groups: dict[Hashable, int] = {}
        self._sizes: dict[int, int] = {}
        #: (key bit, holder bitset) of each common key: remembered by
        #: :meth:`seal`, forgotten by any change.
        self._common: list[tuple[int, int]] = []

    def __len__(self) -> int:
        return len(self._slot_of)

    def members(self) -> list[Hashable]:
        """Live members, in the order they were added."""
        return list(self._slot_of)

    def num_keys(self) -> int:
        """Distinct feature keys seen so far."""
        return len(self._levels)

    # ------------------------------------------------------------------ #
    # maintenance
    # ------------------------------------------------------------------ #
    def seal(self) -> None:
        """Remember the holder bitset of every *common* key.

        A key is common when at least one live member in
        :data:`COMMON_SHARE` holds it; ``contained_in`` clears the holders of
        those the query lacks in one pass.  The next ``add`` or ``remove``
        forgets them (a reused slot must not inherit stale holders).
        """
        live = len(self._slot_of)
        self._common = [
            (1 << number, levels[0]) for number, levels in enumerate(self._levels)
            if levels and levels[0].bit_count() * COMMON_SHARE >= live
        ]

    def add(self, member: Hashable, features: Mapping[Hashable, int],
            group: Hashable = None) -> None:
        """Set the member's bit in every level its feature counts reach."""
        if member in self._slot_of:
            raise IndexError_(f"member {member!r} is already indexed")
        self._common = []
        if self._free:
            slot = self._free.pop()
        else:
            slot = len(self._members)
            self._members.append(None)
            self._member_keys.append(0)
        bit = 1 << slot
        keys = 0
        key_number, all_levels = self._key_number, self._levels
        for key, count in features.items():
            number = key_number.get(key)
            if number is None:
                number = key_number[key] = len(all_levels)
                all_levels.append([])
            levels = all_levels[number]
            if count > len(levels):
                levels.extend([0] * (count - len(levels)))
            for position in range(count):
                levels[position] |= bit
            keys |= 1 << number
        self._members[slot] = member
        self._member_keys[slot] = keys
        self._slot_of[member] = slot
        self._groups[group] = self._groups.get(group, 0) | bit
        self._sizes[len(features)] = self._sizes.get(len(features), 0) | bit

    def remove(self, member: Hashable) -> None:
        """Clear the member's bit everywhere and free its slot for reuse."""
        slot = self._slot_of.pop(member, None)
        if slot is None:
            raise IndexError_(f"member {member!r} is not indexed")
        self._common = []
        keep = ~(1 << slot)
        self._sizes[self._member_keys[slot].bit_count()] &= keep
        for number in _set_bits(self._member_keys[slot]):
            levels = self._levels[number]
            for position, level in enumerate(levels):
                levels[position] = level & keep
            while levels and not levels[-1]:
                levels.pop()
        for group, mask in self._groups.items():
            self._groups[group] = mask & keep
        self._free.append(slot)

    # ------------------------------------------------------------------ #
    # the three questions
    # ------------------------------------------------------------------ #
    def containing(self, features: Mapping[Hashable, int], group: Hashable = None) -> set:
        """Members of ``group`` whose multiset contains ``features``."""
        mask = self._groups.get(group, 0)
        for key, count in features.items():
            number = self._key_number.get(key)
            if number is None or len(self._levels[number]) < count:
                return set()
            mask &= self._levels[number][count - 1]
            if not mask:
                return set()
        members = self._members
        return {members[slot] for slot in _set_bits(mask)}

    def contained_in(self, features: Mapping[Hashable, int], group: Hashable = None) -> set:
        """Members of ``group`` whose multiset is contained in ``features``."""
        fits = 0
        for size, sized in self._sizes.items():
            if size <= len(features):
                fits |= sized
        mask = self._groups.get(group, 0) & fits
        query_keys = 0
        for key, count in features.items():
            number = self._key_number.get(key)
            if number is None:
                continue
            query_keys |= 1 << number
            levels = self._levels[number]
            if count < len(levels):
                mask &= ~levels[count]
        foreign_holders = 0
        for key_bit, holders in self._common:
            if not query_keys & key_bit:
                foreign_holders |= holders
        mask &= ~foreign_holders
        members, member_keys, foreign = self._members, self._member_keys, ~query_keys
        return {members[slot] for slot in _set_bits(mask) if not member_keys[slot] & foreign}

    def equal_to(self, features: Mapping[Hashable, int], group: Hashable = None) -> set:
        """Members of ``group`` whose multiset equals ``features``."""
        mask = self._groups.get(group, 0) & self._sizes.get(len(features), 0)
        for key, count in features.items():
            number = self._key_number.get(key)
            if number is None or len(self._levels[number]) < count:
                return set()
            levels = self._levels[number]
            mask &= levels[count - 1]
            if count < len(levels):
                mask &= ~levels[count]
            if not mask:
                return set()
        members = self._members
        return {members[slot] for slot in _set_bits(mask)}

    # ------------------------------------------------------------------ #
    # accounting
    # ------------------------------------------------------------------ #
    def memory_bytes(self) -> int:
        """Measured size of what is held: levels, key bitsets and id tables."""
        return estimate_object_bytes(vars(self))


def _set_bits(mask: int):
    """Positions of the set bits of ``mask``, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class DatasetIndex:
    """The dataset filter: a feature extractor over a containment index.

    Immutable after :meth:`build`, so concurrent queries read it lock-free.
    The build enumerates each dataset graph's features and drops them; a
    query graph remembers its own (``extract_pattern``), because the cache
    and the scatter planner ask for them again.
    """

    name = "containment"

    def __init__(self, extractor: FeatureExtractor) -> None:
        self.extractor = extractor
        self._index = ContainmentIndex()
        self._built = False

    def build(self, dataset: Iterable[Graph]) -> None:
        """Index the dataset graphs (callable once per index instance)."""
        if self._built:
            raise IndexError_("index is already built")
        for position, graph in enumerate(dataset):
            graph_id = graph.graph_id if graph.graph_id is not None else position
            self._index.add(graph_id, self.extractor.extract(graph))
        self._index.seal()
        self._built = True

    def candidates(self, query: Graph, query_type: QueryType | str) -> set[GraphId]:
        """Candidate graph ids for the query (no false dismissals)."""
        self._require_built()
        features = self.extractor.extract_pattern(query)
        if QueryType.parse(query_type) is QueryType.SUBGRAPH:
            return self._index.containing(features)
        return self._index.contained_in(features)

    def graph_ids(self) -> list[GraphId]:
        """All indexed graph ids, in dataset order."""
        self._require_built()
        return self._index.members()

    def memory_bytes(self) -> int:
        """Measured footprint of the index in bytes."""
        return self._index.memory_bytes()

    def describe(self) -> dict[str, object]:
        """The index's parameters for reports."""
        return {
            "name": self.name,
            "extractor": self.extractor.describe(),
            "num_graphs": len(self._index),
            "num_features": self._index.num_keys(),
        }

    def _require_built(self) -> None:
        if not self._built:
            raise IndexError_("index has not been built yet")
