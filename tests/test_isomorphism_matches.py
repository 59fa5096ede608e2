"""The set-level match entry, ``SubgraphMatcher.matches``.

Every dataset test and cache probe goes through it: one side is fixed, the
other sweeps a candidate set.  Its flags must equal per-pair
``is_subgraph`` and the networkx oracle in both roles (fixed pattern, fixed
host) and with ``screened`` either way: the flag only lets the kernel skip
its size and label screen, so it may change what a test costs, never its
answer.  Pairs include labelled edges, empty patterns and patterns whose
largest degree exceeds the host's (the one guard ``screened`` keeps, since
the kernel indexes the host's degree sets by the pattern's degrees).
"""

from __future__ import annotations

import random

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.errors import BudgetExceededError
from repro.graph import Graph, complete_graph, path_graph
from repro.isomorphism import VF2Matcher
from tests.oracles import NetworkXMatcher

LABELS = ["A", "B"]
EDGE_LABELS = [None, "s", "d"]


def random_graph(rng: random.Random, num_vertices: int, density: float,
                 edge_labels: bool) -> Graph:
    """A random (possibly disconnected or empty) labelled graph."""
    graph = Graph()
    for vertex in range(num_vertices):
        graph.add_vertex(vertex, rng.choice(LABELS))
    for a in range(num_vertices):
        for b in range(a + 1, num_vertices):
            if rng.random() < density:
                graph.add_edge(a, b, rng.choice(EDGE_LABELS) if edge_labels else None)
    return graph


@st.composite
def candidate_sets(draw):
    """``(fixed, others)``: graphs of 0–6 vertices, edge-labelled or not."""
    rng = random.Random(draw(st.integers(0, 2**24)))
    labelled = draw(st.booleans())

    def graph() -> Graph:
        return random_graph(rng, rng.randrange(7), rng.choice([0.3, 0.6, 0.9]), labelled)

    return graph(), [graph() for _ in range(draw(st.integers(0, 6)))]


def star(leaves: int) -> Graph:
    graph = Graph()
    graph.add_vertices([(index, "A") for index in range(leaves + 1)])
    for leaf in range(1, leaves + 1):
        graph.add_edge(0, leaf)
    return graph


def expected(matcher, fixed: Graph, others: list[Graph], graph_is_pattern: bool) -> list[bool]:
    if graph_is_pattern:
        return [matcher.is_subgraph(fixed, other) for other in others]
    return [matcher.is_subgraph(other, fixed) for other in others]


@settings(max_examples=80, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(case=candidate_sets(), graph_is_pattern=st.booleans(), screened=st.booleans())
@example(case=(Graph(), [path_graph(["A", "B"]), Graph()]), graph_is_pattern=True,
         screened=True)
@example(case=(path_graph(["A", "A", "A"]), [Graph(), star(3)]), graph_is_pattern=False,
         screened=True)
@example(case=(star(3), [path_graph(["A"] * 4), star(4)]), graph_is_pattern=True,
         screened=True)
def test_matches_is_per_pair_is_subgraph_and_the_oracle(case, graph_is_pattern, screened):
    fixed, others = case
    flags = VF2Matcher().matches(fixed, others, graph_is_pattern, screened)
    assert flags == expected(VF2Matcher(), fixed, others, graph_is_pattern)
    assert flags == expected(NetworkXMatcher(), fixed, others, graph_is_pattern)
    # the base class's loop: what any verifier handed to Method M answers
    assert NetworkXMatcher().matches(fixed, others, graph_is_pattern, screened) == flags


def test_a_pattern_denser_than_its_host_is_no_match_when_screened():
    # equal sizes and labels, so only the degree guard stands between the
    # kernel and an out-of-range degree index
    pattern, host = star(3), path_graph(["A", "A", "A", "A"])
    assert VF2Matcher().matches(pattern, [host], True, screened=True) == [False]
    assert VF2Matcher().matches(host, [pattern], False, screened=True) == [False]


@pytest.mark.parametrize("graph_is_pattern", [True, False])
@pytest.mark.parametrize("screened", [True, False])
def test_node_budget_still_raises(graph_is_pattern, screened):
    pattern, host = complete_graph(["C"] * 6), complete_graph(["C"] * 10)
    fixed, other = (pattern, host) if graph_is_pattern else (host, pattern)
    with pytest.raises(BudgetExceededError):
        VF2Matcher(node_budget=3).matches(fixed, [path_graph(["C"]), other],
                                          graph_is_pattern, screened)
