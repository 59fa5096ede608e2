"""Graph ids and object sizing shared by the index, method and cache layers."""

from __future__ import annotations

import sys

GraphId = int | str


def graph_id_sort_key(graph_id: GraphId) -> tuple[int, int | str]:
    """Stable total order over graph ids, even when int and str ids mix.

    Integer ids sort numerically before string ids (``key=repr`` would order
    ``10`` before ``2`` and is not reproducible for richer id types), so
    verification order — and therefore per-candidate timing attribution —
    is identical across runs.
    """
    if isinstance(graph_id, str):
        return (1, graph_id)
    return (0, graph_id)


def estimate_object_bytes(obj: object) -> int:
    """Recursive, approximate ``sys.getsizeof`` over containers.

    Good enough for the relative space comparisons of experiment II; not a
    precise heap profiler.
    """
    seen: set[int] = set()

    def _size(value: object) -> int:
        if id(value) in seen:
            return 0
        seen.add(id(value))
        total = sys.getsizeof(value)
        if isinstance(value, dict):
            total += sum(_size(k) + _size(v) for k, v in value.items())
        elif isinstance(value, (list, tuple, set, frozenset)):
            total += sum(_size(item) for item in value)
        return total

    return _size(obj)
