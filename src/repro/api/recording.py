"""Server-side trace recording: capture live traffic as a replayable trace.

The ROADMAP "server-side trace recording" item: while a recording is active
the :class:`~repro.server.app.QueryServer` appends every well-formed query
request it receives (admitted *or* backpressured — the recording reproduces
the **offered** load, not the served subset) to a :class:`TraceRecorder`.
Stopping yields a plain :class:`~repro.workload.workload.Workload`, so the
captured production traffic replays through either client
(:func:`~repro.workload.replay.replay_trace` or
:func:`~repro.api.aio.replay_trace_async`) against any candidate
configuration.  What is recorded is the parsed envelope, so a trace carries no
wire detail of the connection it arrived on.
"""

from __future__ import annotations

import threading
import time

from repro.api.envelopes import QueryRequest
from repro.errors import RecordingStateError
from repro.obs.trace import TRACE_KEY
from repro.query_model import Query
from repro.workload.workload import Workload


class TraceRecorder:
    """Thread-safe accumulator for the server's live request stream."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._active = False
        self._queries: list[Query] = []
        self._name = "recorded-trace"
        self._path: str | None = None
        self._started_at: float | None = None
        self._started_mono: float | None = None

    @property
    def active(self) -> bool:
        return self._active

    @property
    def recorded(self) -> int:
        with self._lock:
            return len(self._queries)

    def start(self, name: str | None = None, path: str | None = None) -> dict:
        """Begin a recording; raises :class:`RecordingStateError` if one runs."""
        with self._lock:
            if self._active:
                raise RecordingStateError(
                    f"a recording ({self._name!r}) is already active; stop it first"
                )
            self._active = True
            self._queries = []
            self._name = name or "recorded-trace"
            self._path = path
            # wall clock only stamps *when*; the monotonic clock measures
            # *how long*, so a clock step mid-recording cannot skew it
            self._started_at = time.time()
            self._started_mono = time.monotonic()
            return {"recording": True, "name": self._name, "path": self._path}

    def record(self, request: QueryRequest) -> None:
        """Append one parsed request (no-op while idle; cheap either way)."""
        if not self._active:
            return
        query = request.to_query()
        # a replayed trace must offer the original queries, not resurrect
        # the recording run's trace contexts
        query.metadata.pop(TRACE_KEY, None)
        if request.request_id is not None:
            query.metadata.setdefault("request_id", request.request_id)
        with self._lock:
            if self._active:
                self._queries.append(query)

    def stop(self) -> tuple[Workload, str | None]:
        """End the recording; returns the trace and the persist path (if any).

        A failed persist (unwritable/full filesystem) must not destroy the
        capture: the trace is handed back with ``path=None`` — the caller
        then ships it inline — and the write error rides in its metadata.
        """
        with self._lock:
            if not self._active:
                raise RecordingStateError("no recording is active")
            self._active = False
            queries, self._queries = self._queries, []
            name, path = self._name, self._path
            started_at = self._started_at
            started_mono = self._started_mono
        trace = Workload(
            name=name,
            queries=queries,
            metadata={
                "recorded": True,
                "recorded_at": started_at,
                "duration_seconds": round(time.monotonic() - started_mono, 3)
                if started_mono is not None else None,
            },
        )
        if path is not None:
            try:
                trace.save(path)
            except OSError as exc:
                trace.metadata["persist_error"] = f"{path}: {exc}"
                path = None
        return trace, path
