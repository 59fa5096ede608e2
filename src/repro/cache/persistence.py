"""Persisting the graph cache across sessions.

GC "per se could be plugged into general graph systems as a library"; a
library-grade cache should survive a process restart.  This module
serialises cached entries — pattern graph, query semantics, answer set,
utility statistics and the observed per-test cost — to JSON and back, so a
warm cache can be saved at shutdown and restored (via
:meth:`GraphCache.warm`) at startup.

Entry ids are not preserved: on load each entry receives a fresh id (ids are
only meaningful within one process), but everything the replacement policies
need is restored.

Cached answers are sets of dataset graph ids, so they only hold for the
dataset they were computed on: a system's snapshot carries that dataset's
:func:`dataset_digest`, and a restore onto any other dataset starts cold.
"""

from __future__ import annotations

import hashlib
import json
from collections.abc import Iterable
from pathlib import Path

from repro.cache.entry import CacheEntry, EntryStatistics
from repro.cache.graph_cache import GraphCache
from repro.errors import CacheError
from repro.graph.graph import Graph
from repro.query_model import QueryType

FORMAT_VERSION = 1


def entry_to_dict(entry: CacheEntry) -> dict:
    """Serialise one cache entry to a JSON-compatible dictionary."""
    return {
        "graph": entry.graph.to_dict(),
        "query_type": entry.query_type.value,
        "answer": sorted(entry.answer, key=repr),
        "admitted_clock": entry.admitted_clock,
        "observed_test_cost": entry.observed_test_cost,
        "stats": entry.stats.snapshot(),
    }


def entry_from_dict(payload: dict) -> CacheEntry:
    """Rebuild a cache entry serialised by :func:`entry_to_dict`."""
    try:
        graph = Graph.from_dict(payload["graph"])
        query_type = QueryType.parse(payload["query_type"])
        answer = frozenset(payload["answer"])
    except (KeyError, TypeError) as exc:
        raise CacheError(f"malformed cache entry payload: {exc}") from exc
    entry = CacheEntry(
        graph=graph,
        query_type=query_type,
        answer=answer,
        admitted_clock=int(payload.get("admitted_clock", 0)),
        observed_test_cost=float(payload.get("observed_test_cost", 0.0)),
    )
    stats = payload.get("stats", {})
    entry.stats = EntryStatistics(
        last_used_clock=int(stats.get("last_used_clock", 0)),
        hit_count=int(stats.get("hit_count", 0)),
        sub_hits=int(stats.get("sub_hits", 0)),
        super_hits=int(stats.get("super_hits", 0)),
        exact_hits=int(stats.get("exact_hits", 0)),
        tests_saved=int(stats.get("tests_saved", 0)),
        seconds_saved=float(stats.get("seconds_saved", 0.0)),
    )
    return entry


def dataset_digest(dataset: Iterable[Graph]) -> str:
    """A sha256 over each graph's id and content, independent of graph order."""
    digests = sorted(hashlib.sha256(json.dumps(graph.to_dict()).encode()).hexdigest()
                     for graph in dataset)
    return hashlib.sha256("".join(digests).encode()).hexdigest()


def save_cache(cache: GraphCache, path: str | Path, digest: str | None = None) -> int:
    """Write every resident entry of ``cache`` to ``path`` (JSON).

    ``digest`` is the :func:`dataset_digest` of the dataset the answers were
    computed on, when the caller knows it.  Returns the number of entries
    written.
    """
    entries = cache.entries()
    payload = {
        "format_version": FORMAT_VERSION,
        "capacity": cache.capacity,
        "policy": cache.policy.name,
        "dataset_digest": digest,
        "entries": [entry_to_dict(entry) for entry in entries],
    }
    Path(path).write_text(json.dumps(payload, indent=2), encoding="utf-8")
    return len(entries)


def entries_from_payload(payload: object) -> list[CacheEntry]:
    """Rebuild the entries of an already-parsed snapshot payload."""
    if not isinstance(payload, dict) or "entries" not in payload:
        raise CacheError("cache snapshot has no 'entries' field")
    version = payload.get("format_version", 0)
    if version > FORMAT_VERSION:
        raise CacheError(f"cache snapshot format {version} is newer than supported")
    return [entry_from_dict(item) for item in payload["entries"]]


def load_cache_entries(path: str | Path) -> list[CacheEntry]:
    """Load the entries saved by :func:`save_cache` (fresh entry ids)."""
    return entries_from_payload(json.loads(Path(path).read_text(encoding="utf-8")))


def restore_cache(cache: GraphCache, path: str | Path) -> int:
    """Warm ``cache`` from a snapshot file; returns entries restored."""
    return cache.warm(load_cache_entries(path))
