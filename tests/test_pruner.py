"""Tests for the Candidate Set Pruner (the S / S' / C logic of Fig. 3)."""

from __future__ import annotations

import pytest

from repro.cache import CacheEntry, CandidateSetPruner
from repro.graph import molecule_graph
from repro.query_model import QueryType


def entry(answer, seed=0, query_type=QueryType.SUBGRAPH) -> CacheEntry:
    return CacheEntry(
        graph=molecule_graph(5, rng=seed), query_type=query_type, answer=frozenset(answer)
    )


@pytest.fixture()
def pruner() -> CandidateSetPruner:
    return CandidateSetPruner()


class TestSubgraphQuerySemantics:
    def test_sub_hit_yields_guaranteed_answers(self, pruner):
        candidates = set(range(10))
        sub_hit = entry({1, 2, 3})
        result = pruner.prune(QueryType.SUBGRAPH, candidates, [sub_hit], [])
        assert result.guaranteed_answers == {1, 2, 3}
        assert result.remaining_candidates == candidates - {1, 2, 3}
        assert result.guaranteed_non_answers == set()

    def test_super_hit_prunes_to_its_answer(self, pruner):
        candidates = set(range(10))
        super_hit = entry({0, 1, 2, 3, 4})
        result = pruner.prune(QueryType.SUBGRAPH, candidates, [], [super_hit])
        assert result.guaranteed_non_answers == {5, 6, 7, 8, 9}
        assert result.remaining_candidates == {0, 1, 2, 3, 4}

    def test_multiple_super_hits_intersect(self, pruner):
        candidates = set(range(10))
        first = entry({0, 1, 2, 3, 4}, seed=1)
        second = entry({3, 4, 5, 6}, seed=2)
        result = pruner.prune(QueryType.SUBGRAPH, candidates, [], [first, second])
        assert result.remaining_candidates == {3, 4}

    def test_multiple_sub_hits_union(self, pruner):
        candidates = set(range(10))
        first = entry({1, 2}, seed=3)
        second = entry({2, 3}, seed=4)
        result = pruner.prune(QueryType.SUBGRAPH, candidates, [first, second], [])
        assert result.guaranteed_answers == {1, 2, 3}

    def test_combined_sub_and_super(self, pruner):
        candidates = set(range(10))
        sub_hit = entry({1, 2}, seed=5)
        super_hit = entry({1, 2, 3, 4, 5}, seed=6)
        result = pruner.prune(QueryType.SUBGRAPH, candidates, [sub_hit], [super_hit])
        assert result.guaranteed_answers == {1, 2}
        assert result.remaining_candidates == {3, 4, 5}
        assert result.guaranteed_non_answers == {0, 6, 7, 8, 9}
        # the three sets partition C_M (plus guaranteed answers within it)
        union = (
            result.guaranteed_answers & candidates
        ) | result.guaranteed_non_answers | result.remaining_candidates
        assert union == candidates

    def test_tests_saved(self, pruner):
        candidates = set(range(20))
        super_hit = entry(set(range(5)), seed=7)
        result = pruner.prune(QueryType.SUBGRAPH, candidates, [], [super_hit])
        assert len(candidates) - len(result.remaining_candidates) == 15

    def test_per_hit_savings_attribution(self, pruner):
        candidates = set(range(10))
        sub_hit = entry({1, 2, 3}, seed=8)
        super_hit = entry({0, 1, 2, 3, 4}, seed=9)
        result = pruner.prune(QueryType.SUBGRAPH, candidates, [sub_hit], [super_hit])
        assert result.per_hit_savings[sub_hit.entry_id] == 3
        assert result.per_hit_savings[super_hit.entry_id] == 5

    def test_no_hits_everything_remains(self, pruner):
        candidates = {1, 2, 3}
        result = pruner.prune(QueryType.SUBGRAPH, candidates, [], [])
        assert result.remaining_candidates == candidates


class TestSupergraphQuerySemantics:
    def test_roles_flip_for_supergraph_queries(self, pruner):
        candidates = set(range(10))
        # for supergraph queries the SUPER case yields guarantees...
        super_hit = entry({1, 2}, seed=10, query_type=QueryType.SUPERGRAPH)
        result = pruner.prune(QueryType.SUPERGRAPH, candidates, [], [super_hit])
        assert result.guaranteed_answers == {1, 2}
        # ...and the SUB case prunes
        sub_hit = entry({0, 1, 2, 3}, seed=11, query_type=QueryType.SUPERGRAPH)
        result = pruner.prune(QueryType.SUPERGRAPH, candidates, [sub_hit], [])
        assert result.guaranteed_non_answers == set(range(4, 10))

    def test_string_query_type_accepted(self, pruner):
        result = pruner.prune("supergraph", {1, 2}, [], [entry({1}, seed=12)])
        assert result.guaranteed_answers == {1}


class TestExactHit:
    def test_exact_hit_answers_without_verification(self, pruner):
        # no filter ran: the hit saves the |C_M| its entry recorded
        exact = entry({2, 5}, seed=13)
        exact.baseline_tests = 8
        result = pruner.exact_hit_result(exact)
        assert result.guaranteed_answers == {2, 5}
        assert result.remaining_candidates == set()
        assert result.guaranteed_non_answers == set()
        assert result.per_hit_savings == {exact.entry_id: 8}
