"""CT-Index style FTV method: tree (star) + cycle features, hashed.

Represents the "different feature family, different space/filtering trade
off" point in the Method M spectrum.  Features are star and cycle patterns
(both monotone under subgraph containment) hashed into ``num_bits``
positions, so the index is small but filtering is weaker than with the exact
multisets.
"""

from __future__ import annotations

from repro.errors import MethodError
from repro.features.base import CompositeExtractor
from repro.features.cycles import CycleFeatureExtractor
from repro.features.fingerprint import HashedFeatureExtractor
from repro.features.trees import StarFeatureExtractor
from repro.isomorphism.base import SubgraphMatcher
from repro.methods.base import MethodM


class CTIndexMethod(MethodM):
    """Fingerprint FTV method over star and cycle features."""

    name = "ct-index"

    def __init__(
        self,
        max_leaves: int = 3,
        max_cycle_length: int = 6,
        num_bits: int = 2048,
        verifier: SubgraphMatcher | None = None,
    ) -> None:
        if num_bits <= 0:
            raise MethodError("num_bits must be positive")
        super().__init__(verifier=verifier)
        self.max_leaves = max_leaves
        self.max_cycle_length = max_cycle_length
        self.num_bits = num_bits

    def _extractor(self) -> HashedFeatureExtractor:
        return HashedFeatureExtractor(
            CompositeExtractor(
                [
                    StarFeatureExtractor(max_leaves=self.max_leaves),
                    CycleFeatureExtractor(max_length=self.max_cycle_length),
                ]
            ),
            num_bits=self.num_bits,
        )

    def describe(self) -> dict[str, object]:
        description = super().describe()
        description["max_leaves"] = self.max_leaves
        description["max_cycle_length"] = self.max_cycle_length
        description["num_bits"] = self.num_bits
        return description
