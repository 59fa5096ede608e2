"""Request batcher: coalesce queued queries into engine batches.

The serving hot path of the subsystem.  Incoming queries land in a *bounded*
admission queue (backpressure: a full queue rejects the request — the HTTP
layer maps that to 429).  The queue is a priority queue: entries are ordered
by priority band (higher ``priority`` first), earliest deadline first within
a band, FIFO among peers — so under load the dispatcher always spends the
next batch slot on the most urgent work still worth doing.  The queue bound
is the whole admission rule: a 429 always means the queue is full.  A single
dispatcher thread pulls the queue and serves on arrival: it blocks for the
head, takes whatever else is *already* queued (up to ``max_batch_size`` in all) and
executes the whole batch, on the dispatcher thread, through the system's
``run_batch``.  Nothing waits for stragglers — an idle dispatcher runs a
lone query at once, and batches form only under backlog, from the queries
that arrived while the previous batch ran.  An unsharded system answers a
batch in order (the matcher is CPU-bound under the GIL, so threads inside
one process would only take turns); a sharded one hands each shard its share of the batch at
once, which is what lets process shards overlap.  Each caller holds a
:class:`~concurrent.futures.Future` that resolves to a :class:`ServedQuery`
when its batch completes.

Dead work is *shed*, never executed: at batch-build time the dispatcher
drops entries whose deadline already expired (their future raises the typed
:class:`~repro.errors.DeadlineExceededError`, the wire ``timeout``/504) and
entries whose waiter gave up (:meth:`RequestBatcher.abandon` — the server's
request-timeout path).  Both shed reasons are counted in
:class:`BatcherStats`.

Shutdown is graceful by default: ``close(drain=True)`` stops admission,
executes everything already queued, and only then joins the dispatcher —
nothing accepted is ever dropped.  Cache admission and replacement run
inside ``run_batch``, on the dispatcher thread, like the rest of the query.
"""

from __future__ import annotations

import itertools
import math
import queue
import threading
import time
from concurrent.futures import Future
from dataclasses import dataclass, replace

from typing import TYPE_CHECKING, Union

from repro.api.envelopes import QueryRequest, QueryResponse
from repro.errors import (
    AdmissionRejectedError,
    ConfigurationError,
    DeadlineExceededError,
    ServerClosedError,
)
from repro.obs.logs import get_logger
from repro.query_model import Query
from repro.runtime.report import QueryReport
from repro.runtime.system import GraphCacheSystem

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sharding.system import ShardedGraphCacheSystem

    AnySystem = Union[GraphCacheSystem, "ShardedGraphCacheSystem"]

_STOP = object()

#: Queue key of the stop marker: sorts after every real entry (priorities are
#: finite ints, so ``-priority`` can never reach ``inf``), which is exactly
#: the drain semantics the FIFO queue had — everything admitted before
#: ``close()`` is processed first, then the dispatcher sees the marker.
_STOP_KEY = (math.inf, math.inf, math.inf)

logger = get_logger("server.batcher")


@dataclass
class ServedQuery:
    """What a caller's future resolves to: the report plus serving metadata."""

    report: QueryReport
    #: Seconds the query waited in the admission queue before its batch ran.
    queue_seconds: float
    #: Number of queries coalesced into the batch that served this query.
    batch_size: int

    def to_response(self, request_id: str | int | None = None) -> QueryResponse:
        """The typed response envelope, serving metadata included."""
        return QueryResponse.from_report(
            self.report,
            queue_seconds=self.queue_seconds,
            batch_size=self.batch_size,
            request_id=request_id,
        )


@dataclass
class _Pending:
    query: Query
    future: Future
    enqueued_at: float
    #: Absolute monotonic deadline (None = no deadline).
    deadline: float | None = None
    #: The caller's relative budget in seconds (for the shed error message).
    deadline_budget: float | None = None
    priority: int = 0
    request_id: str | int | None = None
    #: Set by :meth:`RequestBatcher.abandon`: the waiter gave up, skip this
    #: entry at batch-build time instead of executing dead work.
    abandoned: bool = False


@dataclass
class BatcherStats:
    """Counters the ``/stats`` endpoint exposes (one snapshot per call)."""

    submitted: int = 0
    rejected: int = 0
    served: int = 0
    failed: int = 0
    #: Admitted entries dropped at batch-build time because their deadline
    #: expired while queued (future raises ``DeadlineExceededError``).
    shed_expired: int = 0
    #: Admitted entries dropped because the waiter abandoned them (the
    #: server's request-timeout path): no zombie execution.
    shed_abandoned: int = 0
    batches: int = 0
    largest_batch: int = 0
    queue_depth: int = 0

    @property
    def mean_batch_size(self) -> float:
        return (self.served + self.failed) / self.batches if self.batches else 0.0

    @property
    def shed(self) -> int:
        """Total dead work dropped before execution, for either reason."""
        return self.shed_expired + self.shed_abandoned

    def to_dict(self) -> dict:
        return {
            "submitted": self.submitted,
            "rejected": self.rejected,
            "served": self.served,
            "failed": self.failed,
            "shed": self.shed,
            "shed_expired": self.shed_expired,
            "shed_abandoned": self.shed_abandoned,
            "batches": self.batches,
            "largest_batch": self.largest_batch,
            "mean_batch_size": round(self.mean_batch_size, 3),
            "queue_depth": self.queue_depth,
        }


class RequestBatcher:
    """Bounded admission queue + batch dispatcher over one system.

    ``system`` is anything exposing ``run_batch`` with the
    :class:`GraphCacheSystem` contract — the single-system engine or a
    :class:`~repro.sharding.system.ShardedGraphCacheSystem`; batches scatter
    across shards inside the system, invisibly to the batcher.
    """

    def __init__(
        self,
        system: "AnySystem",
        max_batch_size: int = 4,
        max_queue_depth: int = 64,
    ) -> None:
        if max_batch_size < 1:
            raise ConfigurationError("max_batch_size must be at least 1")
        if max_queue_depth < 1:
            raise ConfigurationError("max_queue_depth must be at least 1")
        self.system = system
        self.max_batch_size = max_batch_size
        self.max_queue_depth = max_queue_depth
        #: ``(key, entry)`` pairs, key ``(-priority, deadline or inf, seq)``:
        #: priority band descending, earliest deadline first within a band,
        #: submission order among peers.  Unbounded — :meth:`submit` holds the
        #: depth bound, so the stop marker can always be queued.
        self._queue: queue.PriorityQueue = queue.PriorityQueue()
        self._seq = itertools.count()
        self._stats = BatcherStats()
        self._stats_lock = threading.Lock()
        #: Serialises the closed-check + enqueue in :meth:`submit` against
        #: :meth:`close` setting the flag, so the stop marker is strictly the
        #: last item ever queued and no admitted future can be orphaned.
        self._admission_lock = threading.Lock()
        self._closed = False
        self._drain_on_close = True
        self._thread = threading.Thread(
            target=self._run, name="gc-request-batcher", daemon=True
        )
        self._thread.start()

    # ------------------------------------------------------------------ #
    # admission
    # ------------------------------------------------------------------ #
    def submit(
        self,
        query: Query | QueryRequest,
        deadline_seconds: float | None = None,
        priority: int | None = None,
    ) -> Future:
        """Enqueue one query; the future resolves to a :class:`ServedQuery`.

        Accepts an executable :class:`Query` or a
        :class:`~repro.api.envelopes.QueryRequest` envelope (the server's
        native currency), which is unwrapped here; an envelope's own
        ``deadline_seconds``/``priority`` fields apply unless the keyword
        overrides them.  A deadline starts ticking now — expire while queued
        and the dispatcher sheds the entry (future raises
        :class:`DeadlineExceededError`) instead of executing it.  Raises
        :class:`AdmissionRejectedError` when the bounded queue is full and
        :class:`ServerClosedError` once draining started.
        """
        request_id: str | int | None = None
        if isinstance(query, QueryRequest):
            if deadline_seconds is None:
                deadline_seconds = query.deadline_seconds
            if priority is None:
                priority = query.priority
            request_id = query.request_id
            query = query.to_query()
        now = time.monotonic()
        pending = _Pending(
            query=query,
            future=Future(),
            enqueued_at=now,
            deadline=now + deadline_seconds if deadline_seconds is not None else None,
            deadline_budget=deadline_seconds,
            priority=priority or 0,
            request_id=request_id,
        )
        # lets abandon() find the queue entry behind the future it hands out
        pending.future._gc_pending = pending
        deadline = pending.deadline if pending.deadline is not None else math.inf
        with self._admission_lock:
            if self._closed:
                raise ServerClosedError("batcher is shut down; no new queries accepted")
            if self._queue.qsize() >= self.max_queue_depth:
                with self._stats_lock:
                    self._stats.rejected += 1
                raise AdmissionRejectedError(self.max_queue_depth)
            self._queue.put_nowait(((-pending.priority, deadline, next(self._seq)), pending))
        with self._stats_lock:
            self._stats.submitted += 1
        return pending.future

    # ------------------------------------------------------------------ #
    # dead-work shedding
    # ------------------------------------------------------------------ #
    def abandon(self, future: Future, request_id: str | int | None = None) -> bool:
        """Mark a submitted future's queue entry dead: its waiter gave up.

        The server's request-timeout path calls this after ``future.result``
        times out.  The dispatcher skips the entry at batch-build time
        instead of executing it.  A done-callback keeps the future observed:
        should the entry slip into a batch anyway (already coalesced when
        abandoned) a later pipeline exception is logged with the request id
        rather than lost.
        Returns False for futures this batcher didn't issue.
        """
        pending = getattr(future, "_gc_pending", None)
        if pending is None:
            return False
        pending.abandoned = True
        who = request_id if request_id is not None else pending.request_id
        label = repr(who) if who is not None else "<no request id>"

        def _observe(done: Future) -> None:
            if done.cancelled():
                logger.debug("abandoned query %s shed before execution", label)
                return
            exc = done.exception()
            if exc is None:
                logger.debug("abandoned query %s completed after its waiter "
                             "timed out; result discarded", label)
            elif isinstance(exc, DeadlineExceededError):
                logger.debug("abandoned query %s shed on deadline expiry", label)
            else:
                logger.warning("abandoned query %s failed later in the "
                               "pipeline: %s: %s", label, type(exc).__name__, exc)

        future.add_done_callback(_observe)
        return True

    def _shed(self, pending: _Pending) -> bool:
        """Drop a dead queue entry (dispatcher thread only); True if shed."""
        if pending.abandoned:
            pending.future.cancel()
            with self._stats_lock:
                self._stats.shed_abandoned += 1
            return True
        if pending.deadline is not None and time.monotonic() >= pending.deadline:
            pending.future.set_exception(DeadlineExceededError(
                "query deadline expired in the admission queue; "
                "shed before execution",
                deadline_seconds=pending.deadline_budget,
            ))
            with self._stats_lock:
                self._stats.shed_expired += 1
            return True
        return False

    def stats(self) -> BatcherStats:
        """A point-in-time copy of the serving counters."""
        with self._stats_lock:
            snapshot = replace(self._stats)
        snapshot.queue_depth = self._queue.qsize()
        return snapshot

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #
    def close(self, drain: bool = True) -> None:
        """Stop admission; with ``drain`` execute everything queued first."""
        with self._admission_lock:
            if self._closed:
                return
            self._closed = True
            self._drain_on_close = drain
            self._queue.put_nowait((_STOP_KEY, _STOP))  # unblocks an idle dispatcher
        self._thread.join()

    @property
    def closed(self) -> bool:
        return self._closed

    # ------------------------------------------------------------------ #
    # dispatcher
    # ------------------------------------------------------------------ #
    def _run(self) -> None:
        stopping = False
        while not stopping:
            _, head = self._queue.get()
            if head is _STOP:
                break
            if self._closed and not self._drain_on_close:
                # closing without drain: refuse instead of executing (the
                # stop marker sorts behind these, so check the flag)
                head.future.set_exception(
                    ServerClosedError("batcher shut down before this query ran")
                )
                continue
            if self._shed(head):
                continue
            # the batch is the head plus whatever is already queued: no wait
            batch = [head]
            while len(batch) < self.max_batch_size:
                try:
                    _, item = self._queue.get_nowait()
                except queue.Empty:
                    break
                if item is _STOP:
                    stopping = True
                    break
                if self._shed(item):
                    continue
                batch.append(item)
            self._execute(batch)
        # the admission lock makes _STOP the last item ever queued, so once
        # the loop exits (with drain: after executing everything admitted;
        # without: after refusing it) the queue is empty and we just return

    def _execute(self, batch: list[_Pending]) -> None:
        started = time.monotonic()
        try:
            reports = self.system.run_batch([pending.query for pending in batch])
        except Exception as exc:  # propagate to every caller in the batch
            logger.error("batch of %d failed: %s: %s",
                         len(batch), type(exc).__name__, exc)
            for pending in batch:
                pending.future.set_exception(exc)
            with self._stats_lock:
                self._stats.batches += 1
                self._stats.failed += len(batch)
                self._stats.largest_batch = max(self._stats.largest_batch, len(batch))
            return
        for pending, report in zip(batch, reports):
            pending.future.set_result(
                ServedQuery(
                    report=report,
                    queue_seconds=started - pending.enqueued_at,
                    batch_size=len(batch),
                )
            )
        with self._stats_lock:
            self._stats.batches += 1
            self._stats.served += len(batch)
            self._stats.largest_batch = max(self._stats.largest_batch, len(batch))
