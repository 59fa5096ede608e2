"""Hashed features: a fixed-width fingerprint of another feature family.

CT-Index style methods do not store the feature multiset per graph; they hash
the feature *set* into ``num_bits`` positions.  As a feature family of its own
— one key per position, every count 1 — that is still monotone under subgraph
containment: losing multiplicities and hash collisions only ever *weaken*
filtering (a position the query sets and the graph also sets can be a false
sharing), never make it unsound (a position missing from the graph is a
guaranteed missing feature).  So the containment index answers it unchanged.
"""

from __future__ import annotations

import hashlib
from collections import Counter

from repro.errors import IndexError_
from repro.features.base import FeatureExtractor, FeatureKey
from repro.graph.graph import Graph


class HashedFeatureExtractor(FeatureExtractor):
    """The set of hash positions of another extractor's feature keys."""

    name = "hashed"

    def __init__(self, inner: FeatureExtractor, num_bits: int = 1024) -> None:
        if num_bits <= 0:
            raise IndexError_("num_bits must be positive")
        self.inner = inner
        self.num_bits = num_bits

    def extract(self, graph: Graph) -> Counter[FeatureKey]:
        """One feature of count 1 per hash position a key of ``graph`` maps to."""
        return Counter({self.position(key): 1 for key in self.inner.extract(graph)})

    def position(self, key: FeatureKey) -> int:
        """The position ``key`` hashes to (stable across processes and runs)."""
        digest = hashlib.blake2b(repr(key).encode("utf-8"), digest_size=8).digest()
        return int.from_bytes(digest, "big") % self.num_bits

    def describe(self) -> dict[str, object]:
        return {"name": self.name, "num_bits": self.num_bits, "inner": self.inner.describe()}
