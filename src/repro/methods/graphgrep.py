"""GraphGrepSX: the path-feature FTV method (the paper's Method M).

Bonnici et al. (reference [1]) filter with the label paths of every dataset
graph up to a maximum length, ``feature_size`` — the knob experiment II
turns.  GRAPES filters with the same feature family; over one containment
index the two would be one computation, so only this one is registered.
"""

from __future__ import annotations

from repro.errors import MethodError
from repro.features.paths import PathFeatureExtractor
from repro.isomorphism.base import SubgraphMatcher
from repro.methods.base import MethodM


class GraphGrepSXMethod(MethodM):
    """FTV method over label paths (the demo's Method M)."""

    name = "graphgrep-sx"

    def __init__(
        self, feature_size: int = 3, verifier: SubgraphMatcher | None = None
    ) -> None:
        if feature_size < 1:
            raise MethodError("feature_size (maximum path length) must be at least 1")
        super().__init__(verifier=verifier)
        self.feature_size = feature_size

    def _extractor(self) -> PathFeatureExtractor:
        return PathFeatureExtractor(max_length=self.feature_size)

    def describe(self) -> dict[str, object]:
        description = super().describe()
        description["feature_size"] = self.feature_size
        return description
