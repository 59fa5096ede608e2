"""Tests for the networkx oracle (VF2 ≡ networkx) and the removed verifier knob."""

from __future__ import annotations

import pytest

from repro.graph import Graph, cycle_graph, molecule_graph, path_graph
from repro.graph.operations import random_connected_subgraph
from repro.isomorphism import VF2Matcher
from repro.runtime import GCConfig
from tests.oracles import NetworkXMatcher


class TestNetworkXMatcher:
    def test_positive_match(self, triangle):
        assert NetworkXMatcher().is_subgraph(path_graph(["C", "O"]), triangle)

    def test_negative_match(self, triangle):
        assert not NetworkXMatcher().is_subgraph(path_graph(["S", "S"]), triangle)

    def test_empty_query(self, triangle):
        result = NetworkXMatcher().find_embedding(Graph(), triangle)
        assert result.found

    def test_mapping_direction_is_query_to_target(self, square_with_tail):
        query = path_graph(["N", "O"])
        result = NetworkXMatcher().find_embedding(query, square_with_tail)
        assert result.found
        for q_vertex, t_vertex in result.mapping.items():
            assert query.label(q_vertex) == square_with_tail.label(t_vertex)

    def test_enumeration(self):
        embeddings = NetworkXMatcher().find_all_embeddings(
            path_graph(["C", "C"]), cycle_graph(["C", "C", "C"])
        )
        assert len(embeddings) == 6

    def test_enumeration_limit(self):
        embeddings = NetworkXMatcher().find_all_embeddings(
            path_graph(["C", "C"]), cycle_graph(["C", "C", "C"]), limit=2
        )
        assert len(embeddings) == 2

    @pytest.mark.parametrize("seed", range(5))
    def test_agreement_with_vf2(self, seed):
        target = molecule_graph(14, rng=seed)
        query = random_connected_subgraph(target, 6, rng=seed + 7)
        assert NetworkXMatcher().is_subgraph(query, target)
        other = molecule_graph(8, rng=seed + 500)
        assert NetworkXMatcher().is_subgraph(other, target) == VF2Matcher().is_subgraph(
            other, target
        )


class TestRegistry:
    def test_unknown_matcher_raises(self):
        # No matcher is chosen by name any more: naming one in the config,
        # known or not, fails loudly instead of silently running VF2.
        for name in ("nope", "vf2"):
            with pytest.raises(TypeError, match="verifier"):
                GCConfig(verifier=name)
            with pytest.raises(TypeError, match="verifier"):
                GCConfig.from_dict({**GCConfig().to_dict(), "verifier": name})
