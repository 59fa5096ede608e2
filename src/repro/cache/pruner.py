"""Candidate Set Pruner: turn cache hits into candidate-set reductions.

Given Method M's candidate set ``C_M`` and the confirmed cache hits, the
pruner computes the quantities of the paper's Query Journey (Fig. 3):

* ``S``  — dataset graphs guaranteed to be answers (skip verification,
  include directly in the answer);
* ``S'`` — dataset graphs guaranteed NOT to be answers (skip verification,
  exclude);
* ``C``  — the remaining candidates that still require sub-iso verification.

Which hit direction produces guarantees versus exclusions depends on the
query semantics:

==============  =======================  ==========================
query type      sub case (g ⊆ h)         super case (h ⊆ g)
==============  =======================  ==========================
subgraph        answers(h) ⊆ answers(g)  answers(g) ⊆ answers(h)
                → guaranteed answers      → prune to answers(h)
supergraph      answers(g) ⊆ answers(h)  answers(h) ⊆ answers(g)
                → prune to answers(h)     → guaranteed answers
==============  =======================  ==========================
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.cache.entry import CacheEntry
from repro.index.base import GraphId
from repro.query_model import QueryType


@dataclass
class PruningResult:
    """The Query Journey quantities for one query."""

    guaranteed_answers: set[GraphId] = field(default_factory=set)  # S
    guaranteed_non_answers: set[GraphId] = field(default_factory=set)  # S'
    remaining_candidates: set[GraphId] = field(default_factory=set)    # C
    #: Per-hit individual contribution (entry_id → number of dataset tests
    #: that hit would save on its own); used to credit utilities.
    per_hit_savings: dict[int, int] = field(default_factory=dict)


class CandidateSetPruner:
    """Combines confirmed hits into the pruned candidate set."""

    def prune(
        self,
        query_type: QueryType | str,
        method_candidates: set[GraphId],
        sub_hits: list[CacheEntry],
        super_hits: list[CacheEntry],
    ) -> PruningResult:
        """Compute S, S' and C from Method M's candidates and the hits."""
        query_type = QueryType.parse(query_type)
        if query_type is QueryType.SUBGRAPH:
            guarantee_hits, prune_hits = sub_hits, super_hits
        else:
            guarantee_hits, prune_hits = super_hits, sub_hits

        candidates = set(method_candidates)
        result = PruningResult()

        # S: union of answer sets of the guarantee-direction hits
        for entry in guarantee_hits:
            result.guaranteed_answers |= entry.answer

        # allowed: intersection of answer sets of the prune-direction hits
        allowed: frozenset[GraphId] | None = None
        for entry in prune_hits:
            allowed = entry.answer if allowed is None else (allowed & entry.answer)

        remaining = candidates - result.guaranteed_answers
        if allowed is not None:
            excluded = remaining - allowed
            result.guaranteed_non_answers = excluded
            remaining -= excluded
        result.remaining_candidates = remaining

        # individual contribution of every hit (independent of the others)
        for entry in guarantee_hits:
            result.per_hit_savings[entry.entry_id] = len(entry.answer & candidates)
        for entry in prune_hits:
            result.per_hit_savings[entry.entry_id] = len(candidates - entry.answer)
        return result

    def exact_hit_result(self, entry: CacheEntry) -> PruningResult:
        """Pruning result for an exact-match hit: the entry's answer is ``S``.

        Method M's filter does not run, so there is no ``C_M`` and no ``S'``
        and nothing is verified.  The hit saves the ``|C_M|`` the entry
        recorded at admission (``baseline_tests``): the dataset is immutable
        and isomorphic queries get equal candidate sets.  With no filter time
        to add, the query's ``baseline_seconds`` estimate is that count times
        the average test cost.
        """
        result = PruningResult(guaranteed_answers=set(entry.answer))
        result.per_hit_savings[entry.entry_id] = entry.baseline_tests
        return result
