"""Tests for Method M implementations (filter-then-verify and plain SI)."""

from __future__ import annotations

import random

import pytest

from repro.errors import MethodError, UnknownMethodError
from repro.graph import molecule_dataset
from repro.graph.operations import extend_graph, random_connected_subgraph
from repro.isomorphism import VF2Matcher
from repro.methods import (
    CTIndexMethod,
    DirectSIMethod,
    GraphGrepSXMethod,
    available_methods,
    make_method,
    register_method,
)
from tests.oracles import UllmannMatcher
from repro.query_model import QueryType

ALL_METHOD_NAMES = ["direct-si", "graphgrep-sx", "ct-index"]


@pytest.fixture(scope="module")
def dataset():
    return molecule_dataset(18, min_vertices=8, max_vertices=14, rng=23)


@pytest.fixture(scope="module")
def reference_answers(dataset):
    """Ground-truth answers computed by brute force (direct SI)."""
    rng = random.Random(31)
    matcher = VF2Matcher()
    queries = []
    for _ in range(6):
        source = dataset[rng.randrange(len(dataset))]
        queries.append(random_connected_subgraph(source, 6, rng=rng))
    answers = [
        {g.graph_id for g in dataset if matcher.is_subgraph(q, g)} for q in queries
    ]
    return queries, answers


@pytest.mark.parametrize("name", ALL_METHOD_NAMES)
class TestMethodCorrectness:
    def test_subgraph_answers_match_reference(self, dataset, reference_answers, name):
        queries, answers = reference_answers
        method = make_method(name)
        method.build(dataset)
        for query, expected in zip(queries, answers):
            result = method.execute(query, QueryType.SUBGRAPH)
            assert result.answer == expected
            assert expected <= result.candidates

    def test_supergraph_answers(self, dataset, name):
        rng = random.Random(37)
        labels = sorted({label for g in dataset for label in g.label_set()})
        query = extend_graph(dataset[2], 4, labels=labels, rng=rng)
        matcher = VF2Matcher()
        expected = {g.graph_id for g in dataset if matcher.is_subgraph(g, query)}
        method = make_method(name)
        method.build(dataset)
        result = method.execute(query, QueryType.SUPERGRAPH)
        assert result.answer == expected

    def test_result_accounting(self, dataset, name):
        method = make_method(name)
        method.build(dataset)
        query = random_connected_subgraph(dataset[0], 5, rng=1)
        result = method.execute(query, QueryType.SUBGRAPH)
        assert result.num_subiso_tests == len(result.candidates)
        assert result.total_seconds >= result.verify_seconds >= 0.0

    def test_requires_build(self, dataset, name):
        method = make_method(name)
        query = random_connected_subgraph(dataset[0], 5, rng=2)
        with pytest.raises(MethodError):
            method.execute(query, QueryType.SUBGRAPH)

    def test_double_build_rejected(self, dataset, name):
        method = make_method(name)
        method.build(dataset)
        with pytest.raises(MethodError):
            method.build(dataset)

    def test_describe(self, dataset, name):
        method = make_method(name)
        method.build(dataset)
        description = method.describe()
        assert description["name"] == name
        assert description["dataset_size"] == len(dataset)


class TestFiltering:
    def test_ftv_filters_more_than_direct(self, dataset):
        direct = DirectSIMethod()
        ftv = GraphGrepSXMethod(feature_size=3)
        direct.build(dataset)
        ftv.build(dataset)
        rng = random.Random(41)
        query = random_connected_subgraph(dataset[4], 7, rng=rng)
        assert len(ftv.filter_candidates(query, "subgraph")) <= len(
            direct.filter_candidates(query, "subgraph")
        )
        assert len(direct.filter_candidates(query, "subgraph")) == len(dataset)

    def test_bigger_feature_size_filters_at_least_as_well(self, dataset):
        small = GraphGrepSXMethod(feature_size=1)
        large = GraphGrepSXMethod(feature_size=3)
        small.build(dataset)
        large.build(dataset)
        rng = random.Random(43)
        for _ in range(4):
            query = random_connected_subgraph(dataset[rng.randrange(len(dataset))], 6, rng=rng)
            assert large.filter_candidates(query, "subgraph") <= small.filter_candidates(
                query, "subgraph"
            )

    def test_bigger_feature_size_bigger_index(self, dataset):
        small = GraphGrepSXMethod(feature_size=2)
        large = GraphGrepSXMethod(feature_size=3)
        small.build(dataset)
        large.build(dataset)
        assert large.index_memory_bytes() > small.index_memory_bytes()

    def test_direct_si_has_no_index_memory(self, dataset):
        method = DirectSIMethod()
        method.build(dataset)
        assert method.index_memory_bytes() == 0

    def test_invalid_feature_sizes(self):
        with pytest.raises(MethodError):
            GraphGrepSXMethod(feature_size=0)
        with pytest.raises(MethodError):
            CTIndexMethod(num_bits=0)


class TestVerifierPluggability:
    def test_alternative_verifier(self, dataset):
        method = GraphGrepSXMethod(feature_size=2, verifier=UllmannMatcher())
        method.build(dataset)
        query = random_connected_subgraph(dataset[5], 6, rng=3)
        reference = DirectSIMethod()
        reference.build(dataset)
        assert method.execute(query, "subgraph").answer == reference.execute(
            query, "subgraph"
        ).answer

    def test_verifier_tally_accumulates(self, dataset):
        method = DirectSIMethod()
        method.build(dataset)
        query = random_connected_subgraph(dataset[6], 5, rng=4)
        method.execute(query, "subgraph")
        assert method.verifier.tally.tests == len(dataset)

    def test_dataset_graph_lookup(self, dataset):
        method = DirectSIMethod()
        method.build(dataset)
        assert method.dataset_graph(dataset[0].graph_id) is dataset[0]
        with pytest.raises(MethodError):
            method.dataset_graph("missing")


class TestRegistry:
    def test_builtins_available(self):
        assert set(ALL_METHOD_NAMES) <= set(available_methods())

    def test_make_method_kwargs(self):
        method = make_method("graphgrep-sx", feature_size=4)
        assert method.feature_size == 4

    def test_unknown_method(self):
        with pytest.raises(UnknownMethodError):
            make_method("nope")

    def test_one_name_per_method(self):
        # GRAPES filters with graphgrep-sx's path features: no second name
        with pytest.raises(UnknownMethodError) as info:
            make_method("grapes")
        available = set(str(info.value).split("available: ")[1].split(", "))
        assert {"direct-si", "graphgrep-sx", "ct-index"} <= available
        assert "grapes" not in available

    def test_register_custom_method(self, dataset):
        class MyMethod(DirectSIMethod):
            name = "my-method"

        register_method("my-method", MyMethod, overwrite=True)
        assert "my-method" in available_methods()
        method = make_method("my-method")
        method.build(dataset)
        assert method.dataset_size == len(dataset)

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ValueError):
            register_method("direct-si", DirectSIMethod)
