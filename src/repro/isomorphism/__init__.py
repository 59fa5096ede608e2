"""The subgraph isomorphism engine (the "Verifier" of Method M)."""

from repro.isomorphism.base import (
    MatchResult,
    SubgraphMatcher,
    trivially_impossible,
)
from repro.isomorphism.vf2 import VF2Matcher

__all__ = [
    "MatchResult",
    "SubgraphMatcher",
    "trivially_impossible",
    "VF2Matcher",
]
