"""Unit tests for the feature extractors (paths, stars, cycles, fingerprints)."""

from __future__ import annotations

import pytest

from repro.errors import IndexError_
from repro.features import (
    CompositeExtractor,
    CycleFeatureExtractor,
    FeatureExtractor,
    HashedFeatureExtractor,
    PathFeatureExtractor,
    StarFeatureExtractor,
    canonical_cycle_key,
    canonical_path_key,
)
from repro.graph import cycle_graph, path_graph, star_graph


class TestCanonicalKeys:
    def test_path_key_direction_independent(self):
        assert canonical_path_key(["C", "O", "N"]) == canonical_path_key(["N", "O", "C"])

    def test_path_key_prefers_smaller(self):
        assert canonical_path_key(["O", "C"]) == ("C", "O")

    def test_cycle_key_rotation_invariant(self):
        assert canonical_cycle_key(["C", "O", "N"]) == canonical_cycle_key(["O", "N", "C"])

    def test_cycle_key_reflection_invariant(self):
        assert canonical_cycle_key(["C", "O", "N"]) == canonical_cycle_key(["N", "O", "C"])


class TestPathFeatures:
    def test_single_vertices_counted(self):
        graph = path_graph(["C", "O"])
        features = PathFeatureExtractor(max_length=1).extract(graph)
        assert features[("C",)] == 1
        assert features[("O",)] == 1

    def test_edge_feature_counted_once(self):
        graph = path_graph(["C", "O"])
        features = PathFeatureExtractor(max_length=1).extract(graph)
        assert features[("C", "O")] == 1

    def test_path_of_length_two(self):
        graph = path_graph(["C", "O", "N"])
        features = PathFeatureExtractor(max_length=2).extract(graph)
        assert features[("C", "O", "N")] == 1

    def test_max_length_zero_only_vertices(self):
        graph = path_graph(["C", "O", "N"])
        features = PathFeatureExtractor(max_length=0).extract(graph)
        assert all(len(key) == 1 for key in features)

    def test_triangle_path_counts(self):
        graph = cycle_graph(["C", "C", "C"])
        features = PathFeatureExtractor(max_length=2).extract(graph)
        assert features[("C", "C")] == 3           # three edges
        assert features[("C", "C", "C")] == 3      # three length-2 simple paths

    def test_negative_length_rejected(self):
        with pytest.raises(IndexError_):
            PathFeatureExtractor(max_length=-1)

    def test_describe(self):
        assert PathFeatureExtractor(max_length=4).describe()["max_length"] == 4

    def test_length_one_is_vertex_labels_and_edges(self):
        graph = cycle_graph(["C", "O", "N", "C"])
        assert PathFeatureExtractor(1).extract(graph) == {
            ("C",): 2, ("O",): 1, ("N",): 1,
            ("C", "O"): 1, ("N", "O"): 1, ("C", "N"): 1, ("C", "C"): 1,
        }


class TestStarFeatures:
    def test_counts_center_and_leaves(self):
        graph = star_graph("N", ["C", "C", "O"])
        features = StarFeatureExtractor(max_leaves=2).extract(graph)
        assert features[("S", "N", ())] == 1
        assert features[("S", "N", ("C",))] == 2          # two C leaves
        assert features[("S", "N", ("C", "C"))] == 1
        assert features[("S", "N", ("C", "O"))] == 2

    def test_max_leaves_respected(self):
        graph = star_graph("N", ["C", "C", "O"])
        features = StarFeatureExtractor(max_leaves=1).extract(graph)
        assert all(len(key[2]) <= 1 for key in features)

    def test_invalid_max_leaves(self):
        with pytest.raises(IndexError_):
            StarFeatureExtractor(max_leaves=0)


class TestCycleFeatures:
    def test_triangle_found_once(self):
        graph = cycle_graph(["C", "C", "C"])
        features = CycleFeatureExtractor(max_length=5).extract(graph)
        assert features[("C", canonical_cycle_key(["C", "C", "C"]))] == 1

    def test_square_found_once(self):
        graph = cycle_graph(["C", "O", "C", "O"])
        features = CycleFeatureExtractor(max_length=6).extract(graph)
        assert sum(features.values()) == 1

    def test_path_has_no_cycles(self):
        graph = path_graph(["C", "O", "N", "C"])
        assert not CycleFeatureExtractor().extract(graph)

    def test_max_length_cuts_long_cycles(self):
        graph = cycle_graph(["C"] * 8)
        assert not CycleFeatureExtractor(max_length=6).extract(graph)
        assert CycleFeatureExtractor(max_length=8).extract(graph)

    def test_invalid_max_length(self):
        with pytest.raises(IndexError_):
            CycleFeatureExtractor(max_length=2)


class TestCompositeExtractor:
    def test_namespaced_union(self):
        graph = cycle_graph(["C", "C", "C"])
        composite = CompositeExtractor(
            [PathFeatureExtractor(max_length=1), CycleFeatureExtractor(max_length=5)]
        )
        features = composite.extract(graph)
        assert any(key[0] == "paths" for key in features)
        assert any(key[0] == "cycles" for key in features)

    def test_requires_extractors(self):
        with pytest.raises(ValueError):
            CompositeExtractor([])

    def test_describe_nested(self):
        composite = CompositeExtractor([PathFeatureExtractor(2)])
        assert composite.describe()["extractors"][0]["name"] == "paths"


class TestMultisetHelpers:
    def test_containment(self):
        big = PathFeatureExtractor(2).extract(cycle_graph(["C", "C", "C", "C"]))
        small = PathFeatureExtractor(2).extract(path_graph(["C", "C"]))
        assert FeatureExtractor.multiset_contains(big, small)
        assert not FeatureExtractor.multiset_contains(small, big)


class TestHashedFeatures:
    def test_positions_of_a_subgraph_are_contained(self):
        hashed = HashedFeatureExtractor(PathFeatureExtractor(2), num_bits=256)
        big = hashed.extract(cycle_graph(["C", "C", "C", "C"]))
        small = hashed.extract(path_graph(["C", "C"]))
        assert FeatureExtractor.multiset_contains(big, small)

    def test_one_feature_per_position_and_multiplicities_dropped(self):
        inner = PathFeatureExtractor(1)
        hashed = HashedFeatureExtractor(inner, num_bits=64)
        graph = path_graph(["C", "C", "C"])
        assert max(inner.extract(graph).values()) > 1
        assert hashed.extract(graph) == {hashed.position(key): 1 for key in inner.extract(graph)}
        assert all(0 <= position < 64 for position in hashed.extract(graph))

    def test_positions_are_stable(self):
        # blake2b(repr(key), 8 bytes) % width: the hash ct-index has always used
        first = HashedFeatureExtractor(PathFeatureExtractor(1), num_bits=64)
        second = HashedFeatureExtractor(PathFeatureExtractor(1), num_bits=64)
        assert first.position(("C",)) == second.position(("C",)) == 47

    def test_describe_names_width_and_inner_family(self):
        description = HashedFeatureExtractor(PathFeatureExtractor(2), num_bits=128).describe()
        assert description["num_bits"] == 128
        assert description["inner"]["name"] == "paths"

    def test_invalid_width(self):
        with pytest.raises(IndexError_):
            HashedFeatureExtractor(PathFeatureExtractor(2), num_bits=0)
