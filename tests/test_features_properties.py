"""Property-based tests: feature monotonicity under subgraph containment.

The FTV soundness argument rests on one property: if ``q ⊆ G`` then the
feature multiset of ``q`` is contained in that of ``G``.  We check it with
hypothesis for every feature family by extracting random connected subgraphs
(guaranteed containment by construction).
"""

from __future__ import annotations

import random

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.features import (
    CompositeExtractor,
    CycleFeatureExtractor,
    FeatureExtractor,
    HashedFeatureExtractor,
    PathFeatureExtractor,
    StarFeatureExtractor,
)
from repro.graph import molecule_graph
from repro.graph.operations import random_connected_subgraph

EXTRACTORS = [
    PathFeatureExtractor(max_length=2),
    PathFeatureExtractor(max_length=3),
    StarFeatureExtractor(max_leaves=3),
    CycleFeatureExtractor(max_length=6),
    CompositeExtractor([PathFeatureExtractor(2), CycleFeatureExtractor(5)]),
]


@settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(seed=st.integers(0, 2**20), size=st.integers(10, 20), sub_size=st.integers(3, 9))
def test_feature_monotonicity(seed, size, sub_size):
    rng = random.Random(seed)
    target = molecule_graph(size, rng=rng)
    query = random_connected_subgraph(target, min(sub_size, size), rng=rng)
    for extractor in EXTRACTORS:
        features = extractor.extract(query)
        target_features = extractor.extract(target)
        assert FeatureExtractor.multiset_contains(target_features, features), (
            f"{extractor.name} violated monotonicity"
        )


@settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(seed=st.integers(0, 2**20), size=st.integers(10, 18), sub_size=st.integers(3, 8))
def test_fingerprint_monotonicity(seed, size, sub_size):
    rng = random.Random(seed)
    target = molecule_graph(size, rng=rng)
    query = random_connected_subgraph(target, min(sub_size, size), rng=rng)
    hashed = HashedFeatureExtractor(PathFeatureExtractor(max_length=2), num_bits=512)
    assert FeatureExtractor.multiset_contains(hashed.extract(target), hashed.extract(query))


@settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(seed=st.integers(0, 2**20), size=st.integers(6, 16))
def test_path_features_invariant_under_relabelling(seed, size):
    graph = molecule_graph(size, rng=seed)
    permuted = graph.relabel_vertices(
        {vertex: f"v{index}" for index, vertex in enumerate(reversed(graph.vertices()))}
    )
    extractor = PathFeatureExtractor(max_length=3)
    assert extractor.extract(graph) == extractor.extract(permuted)
