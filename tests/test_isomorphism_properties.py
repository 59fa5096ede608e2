"""Property-based tests for the sub-iso engines (hypothesis).

Two invariants are checked on randomly generated labelled graphs:

1. any connected subgraph extracted from a graph is found by every engine
   (no false negatives on known-positive instances);
2. the engine and the Ullmann oracle (``tests/oracles.py``) agree with
   networkx's matcher (an independent oracle) on arbitrary query/target pairs.
"""

from __future__ import annotations

import random

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.graph import Graph
from repro.graph.operations import random_connected_subgraph
from repro.isomorphism import VF2Matcher
from tests.oracles import NetworkXMatcher, UllmannMatcher

LABELS = ["A", "B", "C"]


@st.composite
def labelled_graphs(draw, min_vertices=2, max_vertices=9):
    """Random connected labelled graph."""
    num_vertices = draw(st.integers(min_vertices, max_vertices))
    seed = draw(st.integers(0, 2**20))
    rng = random.Random(seed)
    graph = Graph()
    for vertex in range(num_vertices):
        graph.add_vertex(vertex, rng.choice(LABELS))
    # random spanning tree for connectivity
    order = list(range(num_vertices))
    rng.shuffle(order)
    for index in range(1, num_vertices):
        graph.add_edge(order[index], order[rng.randrange(index)])
    # extra random edges
    extra = draw(st.integers(0, num_vertices))
    for _ in range(extra):
        u, v = rng.randrange(num_vertices), rng.randrange(num_vertices)
        if u != v and not graph.has_edge(u, v):
            graph.add_edge(u, v)
    return graph


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(target=labelled_graphs(min_vertices=4, max_vertices=10), data=st.data())
def test_extracted_subgraph_is_always_found(target, data):
    size = data.draw(st.integers(2, target.num_vertices))
    seed = data.draw(st.integers(0, 2**20))
    query = random_connected_subgraph(target, size, rng=seed)
    assert VF2Matcher().is_subgraph(query, target)
    assert UllmannMatcher().is_subgraph(query, target)
    assert NetworkXMatcher().is_subgraph(query, target)


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    query=labelled_graphs(min_vertices=2, max_vertices=6),
    target=labelled_graphs(min_vertices=3, max_vertices=9),
)
def test_vf2_agrees_with_networkx(query, target):
    expected = NetworkXMatcher().is_subgraph(query, target)
    assert VF2Matcher().is_subgraph(query, target) == expected


@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    query=labelled_graphs(min_vertices=2, max_vertices=5),
    target=labelled_graphs(min_vertices=3, max_vertices=8),
)
def test_ullmann_agrees_with_networkx(query, target):
    expected = NetworkXMatcher().is_subgraph(query, target)
    assert UllmannMatcher().is_subgraph(query, target) == expected


@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(target=labelled_graphs(min_vertices=3, max_vertices=8))
def test_returned_mapping_is_a_monomorphism(target):
    query = random_connected_subgraph(target, min(4, target.num_vertices), rng=0)
    result = VF2Matcher().find_embedding(query, target)
    assert result.found
    mapping = result.mapping
    assert len(set(mapping.values())) == query.num_vertices
    for q_vertex, t_vertex in mapping.items():
        assert query.label(q_vertex) == target.label(t_vertex)
    for u, v in query.edges():
        assert target.has_edge(mapping[u], mapping[v])
