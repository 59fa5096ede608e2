"""The bit-parallel match kernel and the compiled graphs it runs on.

Three groups:

(a) differential — the kernel behind :class:`VF2Matcher` agrees with
    :class:`tests.oracles.NetworkXMatcher` (an independent oracle that honours
    edge labels) and with
    :class:`tests.oracles.UllmannMatcher` on random pairs that include edge-labelled
    patterns, disconnected patterns, non-integer and mixed vertex ids and
    targets wider than a machine word, and every mapping it returns really is
    an embedding;
(b) invalidation — a graph that has been compiled (matched) answers according
    to its *current* shape after every kind of mutation, and the compiled form
    never travels with ``copy()``, ``pickle`` or ``to_dict()``;
(c) threads sharing one pattern and its targets get the sequential answers.
"""

from __future__ import annotations

import pickle
import random
import sys
import threading

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.graph import Graph, cycle_graph, molecule_dataset, path_graph
from repro.graph.operations import random_connected_subgraph
from repro.isomorphism import VF2Matcher
from repro.isomorphism.vf2 import _search
from tests.oracles import NetworkXMatcher, UllmannMatcher

LABELS = ["A", "B"]
EDGE_LABELS = [None, None, "s", "d"]

#: How the vertices of a generated graph are named.
ID_STYLES = {
    "int": lambda i: i,
    "str": lambda i: f"v{i}",
    "mixed": lambda i: (i, f"v{i}", ("t", i), float(i) + 0.5)[i % 4],
}

RELAXED = settings(max_examples=60, deadline=None,
                   suppress_health_check=[HealthCheck.too_slow])


def random_graph(rng: random.Random, num_vertices: int, edge_probability: float,
                 id_style: str = "int", edge_labels: bool = False,
                 labels: list[str] = LABELS) -> Graph:
    """A random (possibly disconnected) labelled graph."""
    name = ID_STYLES[id_style]
    graph = Graph()
    for index in range(num_vertices):
        graph.add_vertex(name(index), rng.choice(labels))
    for a in range(num_vertices):
        for b in range(a + 1, num_vertices):
            if rng.random() < edge_probability:
                label = rng.choice(EDGE_LABELS) if edge_labels else None
                graph.add_edge(name(a), name(b), label)
    return graph


def sparse_connected_graph(rng: random.Random, num_vertices: int, id_style: str) -> Graph:
    """A random tree plus a few chords, vertices inserted in shuffled order."""
    name = ID_STYLES[id_style]
    order = list(range(num_vertices))
    rng.shuffle(order)
    graph = Graph()
    for index in order:
        graph.add_vertex(name(index), rng.choice(["A", "B", "C"]))
    for position in range(1, num_vertices):
        graph.add_edge(name(order[position]), name(order[rng.randrange(position)]))
    for _ in range(num_vertices // 8):
        a, b = rng.sample(order, 2)
        graph.add_edge(name(a), name(b))
    return graph


@st.composite
def graph_pairs(draw, max_query=5, max_target=8, edge_labels=True):
    """``(query, target)`` over every id style, dense enough to match often."""
    rng = random.Random(draw(st.integers(0, 2**24)))
    style = draw(st.sampled_from(sorted(ID_STYLES)))
    labelled = edge_labels and draw(st.booleans())
    query = random_graph(rng, draw(st.integers(1, max_query)), 0.45, style, labelled)
    target = random_graph(rng, draw(st.integers(2, max_target)), 0.55, style, labelled)
    return query, target


def assert_embedding(query: Graph, target: Graph, mapping: dict) -> None:
    """``mapping`` is a label- and edge-preserving injection query → target."""
    assert set(mapping) == set(query.vertices())
    assert len(set(mapping.values())) == len(mapping)
    for vertex, image in mapping.items():
        assert target.has_vertex(image)
        assert query.label(vertex) == target.label(image)
    for u, v in query.edges():
        assert target.has_edge(mapping[u], mapping[v])
        wanted = query.edge_label(u, v)
        if wanted is not None:
            assert target.edge_label(mapping[u], mapping[v]) == wanted


# ---------------------------------------------------------------------- #
# (a) differential
# ---------------------------------------------------------------------- #
class TestDifferential:
    @RELAXED
    @given(pair=graph_pairs())
    def test_find_one_agrees_with_networkx_and_ullmann(self, pair):
        query, target = pair
        result = VF2Matcher().find_embedding(query, target)
        assert result.found == NetworkXMatcher().is_subgraph(query, target)
        assert result.found == UllmannMatcher().is_subgraph(query, target)
        if result.found:
            assert_embedding(query, target, result.mapping)
        else:
            assert result.mapping is None

    @RELAXED
    @given(pair=graph_pairs(max_query=4, max_target=7), limit=st.integers(1, 6))
    def test_enumeration_counts_and_limit(self, pair, limit):
        query, target = pair
        embeddings = VF2Matcher().find_all_embeddings(query, target)
        expected = NetworkXMatcher().count_embeddings(query, target)
        assert len(embeddings) == expected
        assert len(UllmannMatcher().find_all_embeddings(query, target)) == expected
        assert len({frozenset(m.items()) for m in embeddings}) == expected  # all distinct
        for mapping in embeddings:
            assert_embedding(query, target, mapping)
        limited = VF2Matcher().find_all_embeddings(query, target, limit=limit)
        assert len(limited) == min(limit, expected)
        assert VF2Matcher().count_embeddings(query, target) == expected

    @settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(seed=st.integers(0, 2**24), size=st.integers(65, 110),
           style=st.sampled_from(sorted(ID_STYLES)), planted=st.booleans())
    def test_targets_wider_than_a_machine_word(self, seed, size, style, planted):
        rng = random.Random(seed)
        target = sparse_connected_graph(rng, size, style)
        if planted:
            query = random_connected_subgraph(target, 5, rng=rng, relabel=False)
        else:
            query = sparse_connected_graph(rng, 4, style)
        result = VF2Matcher().find_embedding(query, target)
        assert result.found == NetworkXMatcher().is_subgraph(query, target)
        assert result.found == UllmannMatcher().is_subgraph(query, target)
        if planted:
            assert result.found
        if result.found:
            assert_embedding(query, target, result.mapping)
        cap = 500  # connected patterns in a sparse target: rarely reached
        expected = NetworkXMatcher().count_embeddings(query, target, limit=cap)
        embeddings = VF2Matcher().find_all_embeddings(query, target, limit=cap)
        assert len(embeddings) == expected
        for mapping in embeddings:
            assert_embedding(query, target, mapping)

    def test_a_whole_component_beyond_bit_64_is_reachable(self):
        target = Graph()
        for index in range(200):
            target.add_vertex(index, "C")
        target.add_vertex("n", "N")
        target.add_vertex("o", "O")
        target.add_edge("n", "o")
        target.add_edge(199, "n")
        query = path_graph(["C", "N", "O"])
        result = VF2Matcher().find_embedding(query, target)
        assert result.mapping == {0: 199, 1: "n", 2: "o"}

    def test_disconnected_pattern_needs_distinct_images(self):
        two_cs = Graph()
        two_cs.add_vertices([("a", "C"), ("b", "C")])
        one_c = path_graph(["C", "O"])
        assert not VF2Matcher().is_subgraph(two_cs, one_c)
        assert VF2Matcher().count_embeddings(two_cs, path_graph(["C", "O", "C"])) == 2

    def test_the_kernel_screens_its_own_input(self):
        # a direct caller (the any-k seam) gets "no match", not an IndexError
        star = Graph()
        star.add_vertices([(index, "C") for index in range(4)])
        for leaf in (1, 2, 3):
            star.add_edge(0, leaf)
        thin = path_graph(["C", "C", "C", "C"])
        assert _search(star, thin, None, None) == []
        assert _search(Graph(), thin, None, None) == [{}]


# ---------------------------------------------------------------------- #
# (b) invalidation
# ---------------------------------------------------------------------- #
class TestInvalidation:
    @staticmethod
    def matches(query: Graph, target: Graph) -> bool:
        found = VF2Matcher().is_subgraph(query, target)
        # the oracle sees the graphs' dicts, never a compiled form
        assert found == NetworkXMatcher().is_subgraph(query, target)
        return found

    def test_add_vertex_then_add_edge_on_the_target(self):
        target, query = path_graph(["C", "C"]), path_graph(["C", "O"])
        assert not self.matches(query, target)
        target.add_vertex(2, "O")
        assert not self.matches(query, target)  # the O is still isolated
        target.add_edge(1, 2)
        assert self.matches(query, target)

    def test_set_label(self):
        target, query = path_graph(["C", "O"]), path_graph(["C", "O"])
        assert self.matches(query, target)
        target.set_label(1, "N")
        assert not self.matches(query, target)
        query.set_label(1, "N")  # the pattern's plan is dropped too
        assert self.matches(query, target)

    def test_label_only_edge_update(self):
        target = path_graph(["C", "C"])
        query = Graph()
        query.add_vertices([(0, "C"), (1, "C")])
        query.add_edge(0, 1, "double")
        assert not self.matches(query, target)
        target.add_edge(0, 1, "double")  # existing edge: only its label changes
        assert target.num_edges == 1
        assert self.matches(query, target)
        target.add_edge(0, 1, "single")
        assert not self.matches(query, target)

    def test_remove_edge(self):
        target = cycle_graph(["C", "C", "C"])
        query = cycle_graph(["C", "C", "C"])
        assert self.matches(query, target)
        target.remove_edge(0, 1)
        assert not self.matches(query, target)
        query.remove_edge(1, 2)  # now both are paths
        assert self.matches(query, target)

    def test_remove_vertex(self):
        target, query = path_graph(["C", "O", "N"]), path_graph(["O", "N"])
        assert self.matches(query, target)
        target.remove_vertex(2)
        assert not self.matches(query, target)
        assert self.matches(path_graph(["C", "O"]), target)

    def test_growing_the_pattern_after_it_matched(self):
        target, query = path_graph(["C", "O"]), path_graph(["C", "O"])
        assert self.matches(query, target)
        query.add_vertex(2, "C")
        query.add_edge(1, 2)
        assert not self.matches(query, target)

    def test_every_mutator_drops_the_compiled_form_and_its_memos(self):
        graph = path_graph(["C", "O", "N"])
        mutations = [
            lambda g: g.add_vertex(9, "S"),
            lambda g: g.set_label(0, "S"),
            lambda g: g.add_edge(0, 2),
            lambda g: g.add_edge(0, 1, "double"),
            lambda g: g.remove_edge(0, 1),
            lambda g: g.remove_vertex(1),
        ]
        for mutate in mutations:
            graph.compiled().plan()
            assert graph.compiled() is graph.compiled()
            mutate(graph)
            assert graph._compiled is None
            # a stale memo would still answer for the old shape
            plan = graph.compiled().plan()
            rebuilt = Graph.from_dict(graph.to_dict()).compiled().plan()
            assert all(getattr(plan, slot) == getattr(rebuilt, slot) for slot in plan.__slots__)

    def test_copies_and_serialised_forms_carry_no_compiled_form(self):
        graph = path_graph(["C", "O", "N"])
        graph.add_edge(0, 1, "double")
        assert VF2Matcher().is_subgraph(path_graph(["O", "N"]), graph)
        graph.compiled().plan()
        assert graph._compiled is not None and graph._compiled._plan is not None

        clone = graph.copy()
        assert clone._compiled is None
        clone.remove_vertex(2)
        assert not VF2Matcher().is_subgraph(path_graph(["O", "N"]), clone)
        assert VF2Matcher().is_subgraph(path_graph(["O", "N"]), graph)

        blob = pickle.dumps(graph)
        assert b"Compiled" not in blob and b"MatchPlan" not in blob
        restored = pickle.loads(blob)
        assert restored._compiled is None
        assert restored.structural_equal(graph)
        assert VF2Matcher().is_subgraph(path_graph(["O", "N"]), restored)

        payload = graph.to_dict()
        assert set(payload) == {"graph_id", "name", "vertices", "edges"}
        assert Graph.from_dict(payload)._compiled is None
        assert graph.subgraph([0, 1])._compiled is None
        assert graph.relabel_vertices()._compiled is None


# ---------------------------------------------------------------------- #
# (c) threads
# ---------------------------------------------------------------------- #
def test_threads_sharing_pattern_and_targets_get_the_sequential_answers():
    dataset = molecule_dataset(30, min_vertices=8, max_vertices=20, rng=7)
    patterns = [random_connected_subgraph(dataset[i], 5, rng=i) for i in range(4)]
    expected = [
        [VF2Matcher().is_subgraph(pattern.copy(), target.copy()) for target in dataset]
        for pattern in patterns
    ]
    assert any(any(row) for row in expected) and not all(all(row) for row in expected)
    # the shared graphs start uncompiled, so the threads race to compile them
    assert all(g._compiled is None for g in dataset + patterns)

    workers = 8
    barrier = threading.Barrier(workers)
    answers: list = [None] * workers
    errors: list = []

    def work(slot: int) -> None:
        try:
            matcher = VF2Matcher()
            barrier.wait(timeout=30)
            answers[slot] = [
                [matcher.find_embedding(pattern, target) for target in dataset]
                for pattern in patterns
            ]
        except Exception as exc:  # noqa: BLE001 - reported by the main thread
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(slot,)) for slot in range(workers)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert not errors
    for rows in answers:
        assert [[result.found for result in row] for row in rows] == expected
        for pattern, row in zip(patterns, rows):
            for target, result in zip(dataset, row):
                if result.found:
                    assert_embedding(pattern, target, result.mapping)
