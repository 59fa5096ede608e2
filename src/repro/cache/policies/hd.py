"""HD replacement: the hybrid policy that coalesces PIN and PINC.

The paper's takeaway message: "When in doubt, use the HD replacement policy,
as it is attested performing better or on par with the best alternative."

Interpretation used here (documented substitution — the demo paper does not
spell out the formula): every resident entry is ranked once by PIN utility
(tests saved) and once by PINC utility (seconds saved); its HD score is the
sum of the two normalised ranks, with a small recency bonus so completely
stale entries lose ties.  Coalescing ranks rather than raw values makes the
policy robust to the very different magnitudes of the two utility signals,
which is exactly the "workload adaptive" behaviour the paper advertises.

The ranking is a function of the residents it is given and nothing else (the
contract replacement rounds rely on to pick a victim once per change of the
resident set).  It sorts twice, once per signal, and takes the least
coalesced score with ``heapq.nsmallest`` — a plain ``min`` for the one victim
a round asks for — with entry ids breaking every tie.
"""

from __future__ import annotations

import heapq
from collections.abc import Sequence

from repro.cache.entry import CacheEntry
from repro.cache.policies.base import ReplacementPolicy


class HDPolicy(ReplacementPolicy):
    """Hybrid (PIN ⊕ PINC) graph replacement."""

    name = "HD"

    #: Weight of the recency component in the coalesced score.
    recency_weight: float = 0.1

    def utility(self, entry: CacheEntry) -> float:
        """Standalone utility (used for admission decisions).

        Combines the two raw signals; the rank-coalesced score is used when a
        full resident population is available (see
        :meth:`get_replaced_content`).
        """
        return (
            float(entry.stats.tests_saved)
            + entry.stats.seconds_saved
            + self.recency_weight * entry.stats.last_used_clock
        )

    def get_replaced_content(self, entries: Sequence[CacheEntry], count: int) -> list[int]:
        """Rank-coalesce PIN and PINC over the resident population."""
        if count <= 0 or not entries:
            return []
        n = len(entries)
        ids = [entry.entry_id for entry in entries]
        by_pin = [(entry.stats.tests_saved, entry.entry_id) for entry in entries]
        by_pinc = [(entry.stats.seconds_saved, entry.entry_id) for entry in entries]
        clocks = [entry.stats.last_used_clock for entry in entries]
        ranks = [0] * n
        for keys in (by_pin, by_pinc):
            for rank, position in enumerate(sorted(range(n), key=keys.__getitem__)):
                ranks[position] += rank
        max_clock = max(clocks) or 1
        weight = self.recency_weight
        scores = [(ranks[p] + weight * (clocks[p] / max_clock), ids[p]) for p in range(n)]
        return heapq.nsmallest(count, range(n), key=scores.__getitem__)
