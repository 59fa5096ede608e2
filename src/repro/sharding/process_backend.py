"""ProcessShardBackend: one spawned worker process per shard, one blocking hop.

The GIL makes ``shard_backend="thread"`` a single-core deployment for
CPU-bound verification: 2 thread shards answer gcbench's ``engine_cold``
trace at about half the unsharded rate (README, "Concurrency model"), so
the thread backend is the in-process differential reference and this one is
the way past one core.  This backend keeps the whole scatter-gather
architecture — planner, merge, ``/metrics`` fan-in, snapshots — and swaps
only the shard hosting: each shard becomes a spawned OS process running
:func:`repro.sharding.worker.worker_main` (its own
:class:`~repro.runtime.system.GraphCacheSystem`, its own interpreter, its
own core), reachable over loopback HTTP speaking the envelope protocol.  The
transport is the stock blocking :class:`~repro.api.remote.RemoteGraphService`
— one keep-alive socket, minimal HTTP/1.1 framing at both ends, one write
per request and per reply — called on the thread that needs the answer (the
scatter-pool thread running that shard's share), so the coordinator owns no
thread and no event loop for the hop.  A worker's ``/query`` reply *is* the
shard's :class:`~repro.runtime.report.QueryReport` (the fields the merge
reads, :func:`~repro.sharding.worker.report_to_wire`).  Query traffic rides
one keep-alive connection per (worker, calling thread): two batches
scattered at once can reach one worker from two scatter slots, each on its
own connection.  Admin and observability calls arrive on whatever thread
asks (an HTTP handler scraping ``/metrics``) and close their connection
again.  Every transport failure the client raises is an :class:`OSError`.  A
respawn or :meth:`ProcessShardBackend.close` closes every connection to the
worker it retires.

:class:`ProcessShardClient` implements the same shard surface
:class:`~repro.sharding.system.ShardedGraphCacheSystem` already scatters to
(``run_query``/``run_batch``/``statistics``/``dataset``/
snapshots/memory accessors), so the sharded system treats thread shards and
process shards identically.  Each proxy keeps a coordinator-side
:class:`StatisticsManager` mirror fed from the full per-query reports the
worker returns, which is what keeps ``attach_shard`` fan-in working
unchanged.

Worker lifecycle: spawn + ready-handshake at construction (startup errors
travel back over the pipe), graceful drain (``/admin/shutdown`` → join →
terminate) at close, and crash recovery in between — a request hitting a
dead worker triggers a bounded respawn (:data:`RESPAWN_LIMIT`)
and re-issues *only the failed queries* against the cold replacement (sound:
the cache only ever prunes guaranteed candidates, so answers are invariant
under cache state).  A worker that stays down surfaces as a typed,
retryable :class:`~repro.errors.ShardWorkerError` (wire code
``shard-worker``, HTTP 503).
"""

from __future__ import annotations

import multiprocessing
import threading
from collections.abc import Callable, Sequence

from repro.api.core import expect_ok
from repro.api.envelopes import ErrorEnvelope, QueryRequest
from repro.api.remote import RemoteGraphService
from repro.cache.statistics import StatisticsManager
from repro.errors import (
    ConfigurationError,
    ProtocolError,
    ServerError,
    ShardWorkerError,
)
from repro.graph.graph import Graph
from repro.methods.base import MethodM
from repro.obs.logs import get_logger
from repro.obs.recorder import get_recorder
from repro.obs.trace import TRACE_KEY, TraceContext
from repro.query_model import Query, QueryType
from repro.runtime.config import GCConfig
from repro.runtime.report import QueryReport
from repro.sharding.worker import report_from_wire, worker_main

logger = get_logger("sharding.process")

#: Seconds a spawned worker gets to build its index and report its port.
DEFAULT_STARTUP_TIMEOUT = 120.0

#: Per-request timeout against a worker (generous: a shard query is the
#: same work an in-process shard would do, plus loopback framing).
DEFAULT_REQUEST_TIMEOUT = 300.0

#: How many times a crashed worker is replaced before the coordinator
#: surfaces a :class:`~repro.errors.ShardWorkerError` for its shard.
RESPAWN_LIMIT = 1


class _WorkerHandle:
    """One live worker: its process, its port, its client."""

    __slots__ = ("index", "process", "port", "service", "describe")

    def __init__(self, index: int, process, port: int,
                 service: RemoteGraphService, describe: dict) -> None:
        self.index = index
        self.process = process
        self.port = port
        self.service = service
        self.describe = describe


class _RemoteMethodInfo:
    """Read-only stand-in for a worker-resident Method M (name + describe)."""

    def __init__(self, describe_payload: dict) -> None:
        self.name = str(describe_payload.get("method_name", "unknown"))
        self._description = dict(describe_payload.get("method") or {})

    def describe(self) -> dict:
        return dict(self._description)


class ProcessShardBackend:
    """Spawns, supervises and speaks to one worker process per shard."""

    def __init__(
        self,
        partitions: Sequence[Sequence[Graph]],
        shard_config: GCConfig,
        method_factory: Callable[[], MethodM] | None = None,
        startup_timeout: float = DEFAULT_STARTUP_TIMEOUT,
        request_timeout: float = DEFAULT_REQUEST_TIMEOUT,
    ) -> None:
        if method_factory is not None and isinstance(method_factory, MethodM):
            raise ConfigurationError(
                "the process shard backend needs a method *factory*; "
                "pass a zero-argument callable, not a built MethodM"
            )
        self._ctx = multiprocessing.get_context("spawn")
        # spawning pickles the graphs themselves (never their compiled forms);
        # a respawn ships the same partition again
        self._partitions = [list(partition) for partition in partitions]
        self._config_payload = shard_config.to_dict()
        self._method_factory = method_factory
        self._startup_timeout = startup_timeout
        self._request_timeout = request_timeout
        self._respawns_left = [RESPAWN_LIMIT] * len(self._partitions)
        #: Workers successfully replaced after a crash (asserted by tests).
        self.respawns_performed = 0
        self._lock = threading.Lock()
        self._closed = False

        self._handles: list[_WorkerHandle] = []
        started: list[tuple] = []
        try:
            # start every worker first, then collect handshakes: startup
            # (imports + index build) overlaps across workers
            for index in range(len(self._partitions)):
                started.append(self._start_process(index))
            for index, (process, ready) in enumerate(started):
                port, describe = self._await_ready(index, process, ready)
                self._handles.append(self._make_handle(index, process, port, describe))
        except Exception:
            self._teardown(started)
            raise

        self.clients = [
            ProcessShardClient(self, index, partition, shard_config)
            for index, partition in enumerate(partitions)
        ]

    # ------------------------------------------------------------------ #
    # worker lifecycle
    # ------------------------------------------------------------------ #
    def _start_process(self, index: int):
        ready_recv, ready_send = self._ctx.Pipe(duplex=False)
        process = self._ctx.Process(
            target=worker_main,
            args=(ready_send, self._partitions[index],
                  self._config_payload, index, self._method_factory),
            name=f"gc-shard-worker-{index}",
            daemon=True,
        )
        try:
            process.start()
        except Exception as exc:
            ready_recv.close()
            raise ConfigurationError(
                f"failed to spawn shard {index} worker: {exc} — a process "
                "backend ships its method factory to the child by pickling, "
                "so it must be a module-level callable (or None for the "
                "config-driven default)"
            ) from exc
        finally:
            ready_send.close()  # the child holds the write end now
        return process, ready_recv

    def _await_ready(self, index: int, process, ready) -> tuple[int, dict]:
        try:
            if not ready.poll(self._startup_timeout):
                raise ShardWorkerError(
                    index, f"startup handshake timed out after {self._startup_timeout}s"
                )
            try:
                payload = ready.recv()
            except (EOFError, OSError) as exc:
                raise ShardWorkerError(
                    index, f"worker died during startup ({type(exc).__name__})"
                ) from exc
        finally:
            ready.close()
        if not isinstance(payload, dict) or "port" not in payload:
            reason = payload.get("error") if isinstance(payload, dict) else repr(payload)
            raise ShardWorkerError(index, f"worker failed to start: {reason}")
        return int(payload["port"]), dict(payload.get("describe") or {})

    def _make_handle(self, index: int, process, port: int, describe: dict) -> _WorkerHandle:
        service = RemoteGraphService("127.0.0.1", port, timeout=self._request_timeout)
        return _WorkerHandle(index, process, port, service, describe)

    def describe_payload(self, index: int) -> dict:
        """The handshake describe payload of shard ``index``'s worker."""
        return dict(self._handles[index].describe)

    # ------------------------------------------------------------------ #
    # transport (the calling thread → its connection → the worker)
    # ------------------------------------------------------------------ #
    def call(self, index: int, method: str, path: str,
             body: dict | None = None) -> tuple[int, dict]:
        """One admin or observability request to shard ``index``'s worker.

        These arrive on whatever thread asks — an HTTP handler scraping
        ``/metrics``, the caller of ``warm_cache`` — so the connection is
        closed again instead of staying parked on a thread that may never
        come back.
        """
        try:
            return self._call_many(index, [(method, path, body)])[0]
        finally:
            self._handles[index].service.close()

    def _call_many(self, index: int, requests: list[tuple]) -> list[tuple[int, dict]]:
        """``(method, path, body)`` requests to one worker, with crash recovery.

        The requests go out one after the other over the calling thread's
        keep-alive connection; outcomes return in submission order.  A
        transport failure against a *dead* worker spends respawn budget,
        brings up a cold replacement and carries on from the failed position
        there (every endpoint driven through here is answer-safe to
        re-execute) — completed answers are kept exactly once, so a crash
        can neither drop nor duplicate an answer.  A transport failure
        against a live worker propagates — the client already retried a
        stale keep-alive connection once, and a timeout must never re-run a
        query that may still be executing.
        """
        results: list[tuple[int, dict]] = []
        attempts = 0
        while len(results) < len(requests):
            handle = self._handle(index)
            try:
                for request in requests[len(results):]:
                    results.append(handle.service.request(*request))
            except OSError as failure:  # every transport failure the client raises
                # NB: TimeoutError subclasses OSError — classify it first
                if isinstance(failure, TimeoutError) and handle.process.is_alive():
                    raise
                self._recover(
                    index, handle,
                    f"worker lost an in-flight request "
                    f"({type(failure).__name__}: {failure})",
                    cause=failure,
                )
                attempts += 1
                if attempts > RESPAWN_LIMIT + 1:  # pragma: no cover - safety net
                    raise ShardWorkerError(index, "worker kept failing after respawn",
                                           self.respawns_performed)
        return results

    def expect(self, index: int, method: str, path: str,
               body: dict | None = None) -> dict:
        """:meth:`call`, insisting on a 200 payload."""
        return expect_ok(f"shard {index} {path}",
                         *self.call(index, method, path, body))

    def admin(self, index: int, path: str, body: dict | None = None) -> dict:
        """POST an admin endpoint and insist on a 200 payload."""
        return self.expect(index, "POST", path, body or {})

    def describe(self, index: int) -> dict:
        """A *live* describe of shard ``index``'s worker (memory, cache)."""
        return self.expect(index, "GET", "/describe")

    def query(self, index: int, body: dict) -> tuple[int, dict]:
        """POST one query envelope to shard ``index`` (keep-alive)."""
        return self.query_batch(index, [body])[0]

    def query_batch(self, index: int, bodies: list[dict]) -> list[tuple[int, dict]]:
        """POST a share of a batch, one envelope after the other (in order)."""
        return self._call_many(index, [("POST", "/query", body) for body in bodies])

    # ------------------------------------------------------------------ #
    # crash recovery
    # ------------------------------------------------------------------ #
    def _handle(self, index: int) -> _WorkerHandle:
        if self._closed:
            raise ServerError("process shard backend is closed")
        with self._lock:
            return self._handles[index]

    def _recover(self, index: int, failed_handle: _WorkerHandle,
                 reason: str, cause: BaseException | None = None) -> None:
        """Replace a dead worker under budget; generation-safe across threads.

        Many in-flight requests can fail together when one worker dies; only
        the first caller spends budget and respawns, the rest observe the
        swapped handle and simply retry.  A transport error against a worker
        that is demonstrably alive is not a crash — it propagates.
        """
        with self._lock:
            current = self._handles[index]
            if current is not failed_handle:
                return  # a sibling thread already replaced this worker
            process = failed_handle.process
            if process.is_alive():
                process.join(timeout=0.5)  # a dying worker needs a beat to reap
            if process.is_alive():
                raise cause if cause is not None else ShardWorkerError(
                    index, reason, self.respawns_performed)
            if self._respawns_left[index] <= 0:
                logger.error("shard %d worker down (%s); respawn budget exhausted",
                             index, reason)
                raise ShardWorkerError(
                    index, f"{reason}; respawn budget exhausted",
                    self.respawns_performed,
                ) from cause
            self._respawns_left[index] -= 1
            failed_handle.service.close_all()
            replacement, ready = self._start_process(index)
            try:
                port, describe = self._await_ready(index, replacement, ready)
            except ShardWorkerError:
                replacement.terminate()
                raise
            self._handles[index] = self._make_handle(index, replacement, port, describe)
            self.respawns_performed += 1
            logger.warning(
                "shard %d worker respawned after crash (%s); "
                "%d respawn(s) left for this shard",
                index, reason, self._respawns_left[index],
            )

    # ------------------------------------------------------------------ #
    # observability
    # ------------------------------------------------------------------ #
    def liveness(self) -> list[dict]:
        """One row per worker: alive/pid/port plus respawn accounting."""
        with self._lock:
            handles = list(self._handles)
            respawns_left = list(self._respawns_left)
        return [
            {
                "shard": handle.index,
                "backend": "process",
                "alive": handle.process.is_alive(),
                "pid": handle.process.pid,
                "port": handle.port,
                "respawns": RESPAWN_LIMIT - respawns_left[handle.index],
                "respawns_left": respawns_left[handle.index],
            }
            for handle in handles
        ]

    # ------------------------------------------------------------------ #
    # shutdown
    # ------------------------------------------------------------------ #
    @staticmethod
    def _teardown(started: list[tuple]) -> None:
        """Startup-failure cleanup: kill every spawned worker (none was called yet)."""
        for process, ready in started:
            ready.close()  # a no-op once the handshake already closed it
            process.terminate()
        for process, _ in started:
            process.join(timeout=2.0)

    def close(self) -> None:
        """Drain and join every worker: shutdown → join → terminate."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            handles = list(self._handles)
        for handle in handles:
            try:
                # its own short-timeout client: a hung worker must not hold
                # close() for the length of a query timeout
                with RemoteGraphService("127.0.0.1", handle.port, timeout=5.0) as farewell:
                    farewell.request("POST", "/admin/shutdown", {})
            except Exception:
                pass  # a dead worker cannot drain; terminate below
        for handle in handles:
            handle.process.join(timeout=5.0)
            if handle.process.is_alive():
                handle.process.terminate()
                handle.process.join(timeout=2.0)
            handle.service.close_all()


class ProcessShardClient:
    """One shard's proxy: the GraphCacheSystem shard surface over a worker.

    ``cache`` is ``None`` (the real cache lives in the worker).
    ``statistics`` is a coordinator-side mirror recording the full
    per-query reports the worker returns, so ``/metrics`` fan-in reads
    genuine numbers.
    """

    cache = None

    def __init__(self, backend: ProcessShardBackend, index: int,
                 partition: Sequence[Graph], config: GCConfig) -> None:
        self._backend = backend
        self.index = index
        self.dataset = list(partition)
        self.config = config
        self.statistics = StatisticsManager()
        self.method = _RemoteMethodInfo(backend.describe_payload(index))

    # -- query execution ------------------------------------------------ #
    @staticmethod
    def _as_query(query: Query | Graph, query_type: QueryType | str) -> Query:
        if isinstance(query, Query):
            return query
        return Query(graph=query, query_type=QueryType.parse(query_type))

    def _wire(self, query: Query) -> dict:
        # the trace carrier is lifted onto the envelope's own "trace"
        # section — this is the loopback hop the trace context must survive
        metadata = {key: value for key, value in query.metadata.items()
                    if key != TRACE_KEY}
        trace = TraceContext.from_wire(query.metadata.get(TRACE_KEY))
        request = QueryRequest(graph=query.graph, query_type=query.query_type,
                               metadata=metadata, request_id=query.query_id,
                               trace=trace)
        return request.to_wire()

    def _report_from(self, query: Query, status: int, payload: dict) -> QueryReport:
        if "error" in payload:
            raise ErrorEnvelope.from_wire(payload, http_status=status).to_exception()
        section = payload.get("result")
        if not isinstance(section, dict) or "answer" not in section:
            raise ProtocolError(
                f"shard {self.index} worker response carries no report"
            )
        report = report_from_wire(query, section)
        if report.spans:
            # the worker recorded these in *its* process; replay them into
            # the coordinator's recorder so the tree is whole on this side
            get_recorder().record_many(report.spans)
        return report

    def run_query(self, query: Query | Graph,
                  query_type: QueryType | str = QueryType.SUBGRAPH) -> QueryReport:
        query = self._as_query(query, query_type)
        status, payload = self._backend.query(self.index, self._wire(query))
        report = self._report_from(query, status, payload)
        self.statistics.record(report)
        return report

    def run_queries(self, queries, query_type: QueryType | str = QueryType.SUBGRAPH):
        return [self.run_query(query, query_type) for query in queries]

    def run_batch(self, queries, query_type: QueryType | str = QueryType.SUBGRAPH):
        query_list = [self._as_query(query, query_type) for query in queries]
        if not query_list:
            return []
        outcomes = self._backend.query_batch(
            self.index, [self._wire(query) for query in query_list]
        )
        reports = [
            self._report_from(query, status, payload)
            for query, (status, payload) in zip(query_list, outcomes)
        ]
        for report in reports:
            self.statistics.record(report)
        return reports

    # -- shard lifecycle hooks ------------------------------------------ #
    def flush_window(self) -> None:
        self._backend.admin(self.index, "/admin/flush-window")

    def reset_remote_statistics(self) -> None:
        self._backend.admin(self.index, "/admin/reset-statistics")

    def save_snapshot(self, path) -> int:
        return self._snapshot("save", path)

    def restore_snapshot(self, path) -> int:
        return self._snapshot("restore", path)

    def _snapshot(self, action: str, path) -> int:
        payload = self._backend.admin(self.index, f"/admin/snapshot/{action}",
                                      {"path": str(path)})
        return int(payload.get("entries", 0))

    # -- observability --------------------------------------------------- #
    def remote_describe(self) -> dict:
        """A live ``/describe`` of the worker (cache population, memory)."""
        return self._backend.describe(self.index)

    def registry_snapshot(self) -> dict:
        """The worker's own :class:`MetricsRegistry` snapshot (for fan-in)."""
        return self._backend.expect(self.index, "GET", "/obs/registry")

    def drain_logs(self) -> dict:
        """Pop the worker's buffered warning/error log entries."""
        return self._backend.admin(self.index, "/admin/logs/drain")

    def cache_memory_bytes(self) -> int:
        return self._described_bytes("cache_memory_bytes")

    def index_memory_bytes(self) -> int:
        return self._described_bytes("index_memory_bytes")

    def _described_bytes(self, key: str) -> int:
        try:
            return int(self.remote_describe().get(key, 0))
        except Exception:  # metrics must not mask a serving-path failure
            return 0

    def close(self) -> None:
        """Worker teardown is backend-wide; see ProcessShardBackend.close."""
