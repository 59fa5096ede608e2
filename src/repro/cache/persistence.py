"""Persisting the graph cache across sessions.

GC "per se could be plugged into general graph systems as a library"; a
library-grade cache should survive a process restart.  This module
serialises cached entries — pattern graph, query semantics, answer set,
utility statistics, the observed per-test cost and the ``|C_M|`` an exact hit
credits — to JSON and back, so a
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
import math
import os
import tempfile
from collections.abc import Callable, Iterable
from dataclasses import fields
from pathlib import Path
from typing import Any

from repro.cache.entry import CacheEntry, EntryStatistics
from repro.cache.graph_cache import GraphCache
from repro.errors import CacheError, GraphCacheError
from repro.graph.graph import Graph
from repro.query_model import QueryType

#: Version 2 added ``baseline_tests``, without which an entry cannot credit an
#: exact hit; a snapshot of any other version is not restored.
FORMAT_VERSION = 2


def entry_to_dict(entry: CacheEntry) -> dict:
    """Serialise one cache entry to a JSON-compatible dictionary."""
    return {
        "graph": entry.graph.to_dict(),
        "query_type": entry.query_type.value,
        "answer": sorted(entry.answer, key=repr),
        "admitted_clock": entry.admitted_clock,
        "observed_test_cost": entry.observed_test_cost,
        "baseline_tests": entry.baseline_tests,
        "stats": entry.stats.snapshot(),
    }


def _object(value: object) -> dict:
    if not isinstance(value, dict):
        raise TypeError(f"{value!r} is not an object")
    return value


def _answer(value: object) -> frozenset:
    if not isinstance(value, list):
        raise TypeError(f"{value!r} is not a list of graph ids")
    return frozenset(value)


def _count(value: object) -> int:
    if type(value) is not int or value < 0:
        raise ValueError(f"{value!r} is not a non-negative integer")
    return value


def _seconds(value: object) -> float:
    if type(value) not in (int, float) or not 0 <= value < math.inf:
        raise ValueError(f"{value!r} is not a finite non-negative number")
    return float(value)


def _field(payload: dict, name: str, parse: Callable[[object], Any], where: str) -> Any:
    """``parse(payload[name])``; a missing or malformed value is a CacheError."""
    if name not in payload:
        raise CacheError(f"{where}{name}: missing")
    try:
        return parse(payload[name])
    except (GraphCacheError, LookupError, TypeError, ValueError, AttributeError) as exc:
        raise CacheError(f"{where}{name}: {exc}") from exc


def entry_from_dict(payload: object, where: str = "") -> CacheEntry:
    """Rebuild a cache entry serialised by :func:`entry_to_dict`.

    Every field is required; the first missing or malformed one raises
    :class:`CacheError` naming it after ``where`` (e.g. ``"entry 3: "``).
    """
    if not isinstance(payload, dict):
        raise CacheError(f"{where}{payload!r} is not an object")
    entry = CacheEntry(
        graph=_field(payload, "graph", lambda value: Graph.from_dict(_object(value)), where),
        query_type=_field(payload, "query_type", QueryType.parse, where),
        answer=_field(payload, "answer", _answer, where),
        admitted_clock=_field(payload, "admitted_clock", _count, where),
        observed_test_cost=_field(payload, "observed_test_cost", _seconds, where),
        baseline_tests=_field(payload, "baseline_tests", _count, where),
    )
    stats = _field(payload, "stats", _object, where)
    entry.stats = EntryStatistics(**{
        item.name: _field(stats, item.name, _seconds if item.name == "seconds_saved" else _count,
                          f"{where}stats.")
        for item in fields(EntryStatistics)
    })
    return entry


def dataset_digest(dataset: Iterable[Graph]) -> str:
    """A sha256 over each graph's id and content, independent of graph order."""
    digests = sorted(hashlib.sha256(json.dumps(graph.to_dict()).encode()).hexdigest()
                     for graph in dataset)
    return hashlib.sha256("".join(digests).encode()).hexdigest()


def save_cache(cache: GraphCache, path: str | Path, digest: str | None = None) -> int:
    """Write every resident entry of ``cache`` to ``path`` (JSON).

    ``digest`` is the :func:`dataset_digest` of the dataset the answers were
    computed on, when the caller knows it.  The file is replaced atomically
    (:func:`write_atomically`).  Returns the number of entries written.
    """
    entries = cache.entries()
    payload = {
        "format_version": FORMAT_VERSION,
        "capacity": cache.capacity,
        "policy": cache.policy.name,
        "dataset_digest": digest,
        "entries": [entry_to_dict(entry) for entry in entries],
    }
    write_atomically(path, json.dumps(payload, indent=2))
    return len(entries)


def write_atomically(path: str | Path, text: str) -> None:
    """Replace ``path`` with ``text`` all at once: a crash mid-write leaves
    the previous file intact.

    The text goes to a temporary file in the same directory, which is flushed
    and fsynced, then renamed over ``path`` (``os.replace`` is atomic on one
    file system).
    """
    path = Path(path)
    handle, temporary = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.",
                                         suffix=".tmp")
    try:
        with os.fdopen(handle, "w", encoding="utf-8") as stream:
            stream.write(text)
            stream.flush()
            os.fsync(stream.fileno())
        os.replace(temporary, path)
    except BaseException:
        Path(temporary).unlink(missing_ok=True)
        raise


def read_snapshot(path: str | Path) -> object:
    """Parse a snapshot file; one that is not JSON raises :class:`CacheError`."""
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except ValueError as exc:
        raise CacheError(f"cache snapshot {path} is not JSON: {exc}") from exc


def cold_start_reason(payload: object, digest: str) -> str | None:
    """Why a parsed snapshot must not warm a cache over the dataset whose
    :func:`dataset_digest` is ``digest``, or ``None`` when nothing forbids it
    (a malformed payload is left to :func:`entries_from_payload`)."""
    if not isinstance(payload, dict):
        return None
    if payload.get("dataset_digest") != digest:
        return "was not written for this dataset"
    if payload.get("format_version") != FORMAT_VERSION:
        return f"is format {payload.get('format_version')!r}, not {FORMAT_VERSION}"
    return None


def entries_from_payload(payload: object) -> list[CacheEntry]:
    """Rebuild the entries of an already-parsed snapshot payload.

    Anything but a format-:data:`FORMAT_VERSION` snapshot with an ``entries``
    list raises :class:`CacheError`, and so does a malformed entry, named
    ``entry N: <field>: …``.
    """
    if not isinstance(payload, dict) or not isinstance(payload.get("entries"), list):
        raise CacheError("cache snapshot has no 'entries' list")
    version = payload.get("format_version")
    if version != FORMAT_VERSION:
        raise CacheError(f"cache snapshot format {version!r} is not {FORMAT_VERSION}")
    return [entry_from_dict(item, f"entry {position}: ")
            for position, item in enumerate(payload["entries"])]


def load_cache_entries(path: str | Path) -> list[CacheEntry]:
    """Load the entries saved by :func:`save_cache` (fresh entry ids)."""
    return entries_from_payload(read_snapshot(path))


def restore_cache(cache: GraphCache, path: str | Path) -> int:
    """Warm ``cache`` from a snapshot file; returns entries restored."""
    return cache.warm(load_cache_entries(path))
