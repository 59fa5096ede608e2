"""Feature extraction for FTV filtering (paths, stars, cycles, fingerprints)."""

from repro.features.base import CompositeExtractor, FeatureExtractor, FeatureKey
from repro.features.cycles import CycleFeatureExtractor, canonical_cycle_key
from repro.features.fingerprint import HashedFeatureExtractor
from repro.features.paths import PathFeatureExtractor, canonical_path_key, path_features
from repro.features.trees import StarFeatureExtractor

__all__ = [
    "FeatureExtractor",
    "FeatureKey",
    "CompositeExtractor",
    "PathFeatureExtractor",
    "canonical_path_key",
    "path_features",
    "StarFeatureExtractor",
    "CycleFeatureExtractor",
    "canonical_cycle_key",
    "HashedFeatureExtractor",
]
