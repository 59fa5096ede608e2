"""The label-path enumerator against its recursive reference.

:func:`repro.features.paths.enumerate_paths` counts directed label sequences
and canonicalises each distinct one once; ``tests.oracles`` keeps the
recursive enumerator it replaced, which canonicalises every path.  Every
index build, shard summary, cache screen and query analysis reads the
product's multiset, so the two must be equal as ``Counter``s — the same key
set and the same count per key — for every graph shape the system can meet:
molecules, random (also disconnected, isolated vertices, one vertex, no
vertex), string and mixed vertex ids, labelled edges (path features ignore
edge labels), at ``max_length`` 0–4.
"""

from __future__ import annotations

import itertools
from collections import Counter

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.features.paths import enumerate_paths
from repro.graph import Graph, molecule_dataset, molecule_graph
from tests.oracles import reference_enumerate_paths

LENGTHS = st.integers(0, 4)
SETTINGS = settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])


def assert_same_multiset(graph: Graph, max_length: int) -> None:
    got = enumerate_paths(graph, max_length)
    expected = reference_enumerate_paths(graph, max_length)
    assert isinstance(got, Counter)
    assert set(got) == set(expected)
    assert dict(got) == dict(expected)


@st.composite
def random_graphs(draw, vertex_ids=st.integers(-50, 50), edge_labels=st.none()) -> Graph:
    """Up to 8 vertices over a 3-letter alphabet and any subset of the edges:
    the empty graph, one vertex, isolated vertices and several components
    are all in range."""
    ids = draw(st.lists(vertex_ids, unique=True, max_size=8))
    graph = Graph()
    for vertex in ids:
        graph.add_vertex(vertex, draw(st.sampled_from("CNO")))
    pairs = list(itertools.combinations(ids, 2))
    if pairs:
        for u, v in draw(st.lists(st.sampled_from(pairs), unique=True, max_size=16)):
            graph.add_edge(u, v, draw(edge_labels))
    return graph


class TestAgainstTheReference:
    @SETTINGS
    @given(seed=st.integers(0, 10_000), size=st.integers(1, 30), max_length=LENGTHS)
    def test_molecule_graphs(self, seed, size, max_length):
        assert_same_multiset(molecule_graph(size, rng=seed), max_length)

    @SETTINGS
    @given(graph=random_graphs(), max_length=LENGTHS)
    def test_random_graphs(self, graph, max_length):
        assert_same_multiset(graph, max_length)

    @SETTINGS
    @given(graph=random_graphs(vertex_ids=st.one_of(
        st.integers(0, 20), st.text("abc", min_size=1, max_size=3))), max_length=LENGTHS)
    def test_string_and_mixed_vertex_ids(self, graph, max_length):
        assert_same_multiset(graph, max_length)

    @SETTINGS
    @given(graph=random_graphs(edge_labels=st.sampled_from([None, "-", "=", "#"])),
           max_length=LENGTHS)
    def test_labelled_edges(self, graph, max_length):
        assert_same_multiset(graph, max_length)
        unlabelled = Graph.from_dict({**graph.to_dict(), "edges": [
            [u, v] for u, v in graph.edges()]})
        assert enumerate_paths(graph, max_length) == enumerate_paths(unlabelled, max_length)

    def test_edge_cases_by_name(self):
        empty, single = Graph(), Graph()
        single.add_vertex("only", "C")
        isolated = Graph()
        isolated.add_vertices([(0, "C"), ("x", "C"), (2, "N")])
        for graph in (empty, single, isolated):
            for max_length in range(5):
                assert_same_multiset(graph, max_length)
        assert enumerate_paths(empty, 3) == Counter()
        assert enumerate_paths(isolated, 3) == Counter({("C",): 2, ("N",): 1})

    def test_every_graph_of_d200_at_length_3(self):
        # gcbench's D200 (molecule graphs of 4-35 vertices, seed 2018)
        for graph in molecule_dataset(200, min_vertices=4, max_vertices=35, rng=2018):
            assert_same_multiset(graph, 3)
