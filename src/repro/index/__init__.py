"""The containment index and the dataset filter built on it (Method M's Filter)."""

from repro.index.base import GraphId, estimate_object_bytes
from repro.index.containment import ContainmentIndex, DatasetIndex

__all__ = [
    "ContainmentIndex",
    "DatasetIndex",
    "GraphId",
    "estimate_object_bytes",
]
