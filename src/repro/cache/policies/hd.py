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
resident set), with entry ids breaking every tie.  It sorts once per signal
and then walks the two orders from the bottom, scoring only the entries it
meets: after depth ``d`` an entry not yet met ranks deeper than ``d`` in both
orders, so its score is at least ``2·(d+1)``, and the walk stops once the
``count``-th best score met is below that (Fagin's threshold rule).  A
victim is usually settled within the first few depths.
"""

from __future__ import annotations

from collections.abc import Sequence
from heapq import heappush, heapreplace

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
        """The ``count`` least coalesced entries, by a threshold walk of the
        PIN and PINC orders."""
        if count <= 0 or not entries:
            return []
        n = len(entries)
        count = min(count, n)
        ids = [entry.entry_id for entry in entries]
        stats = [entry.stats for entry in entries]
        # stable sorts of the id order: ties on a signal go to the smaller id
        by_id = sorted(range(n), key=ids.__getitem__)
        by_pin = sorted(by_id, key=[stat.tests_saved for stat in stats].__getitem__)
        by_pinc = sorted(by_id, key=[stat.seconds_saved for stat in stats].__getitem__)
        ranks = [0] * n
        for order in (by_pin, by_pinc):
            for rank, position in enumerate(order):
                ranks[position] += rank
        max_clock = max([stat.last_used_clock for stat in stats]) or 1
        weight = self.recency_weight
        # a max-heap of the ``count`` best (score, id) met so far, negated
        best: list[tuple[float, int, int]] = []
        met: set[int] = set()
        for depth in range(n):
            for position in (by_pin[depth], by_pinc[depth]):
                if position in met:
                    continue
                met.add(position)
                clock = stats[position].last_used_clock
                score = ranks[position] + weight * (clock / max_clock)
                key = (-score, -ids[position], position)
                if len(best) < count:
                    heappush(best, key)
                elif key > best[0]:
                    heapreplace(best, key)
            # an entry not met yet ranks deeper than ``depth`` in both orders
            if len(best) == count and -best[0][0] < 2 * (depth + 1):
                break
        return [position for _, _, position in sorted(best, reverse=True)]
