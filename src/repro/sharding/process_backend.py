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

One :class:`ProcessShardClient` per shard owns that shard's worker — its
process, port and client, its respawn count — and the request loop with
crash recovery.  It implements the same shard surface
:class:`~repro.sharding.system.ShardedGraphCacheSystem` already scatters to
(``run_query``/``run_batch``/``statistics``/``dataset``/
snapshots/memory accessors), so the sharded system treats thread shards and
process shards identically.  Each client keeps a coordinator-side
:class:`StatisticsManager` mirror fed from the full per-query reports the
worker returns, which is what keeps ``attach_shard`` fan-in working
unchanged.  :class:`ProcessShardBackend` spawns the workers (all of them
first, then every handshake, so their start-up overlaps), replaces one on
request, reports liveness and closes them all.

Worker lifecycle: spawn + ready-handshake at construction (startup errors
travel back over the pipe), graceful drain (``/admin/shutdown`` → join →
terminate) at close, and crash recovery in between — a request hitting a
dead worker triggers a bounded respawn (:data:`RESPAWN_LIMIT`)
and re-issues *only the failed queries* against the cold replacement (sound:
the cache only ever prunes guaranteed candidates, so answers are invariant
under cache state).  A worker that stays down, or a live worker that times
out or sends a malformed reply, surfaces as a typed, retryable
:class:`~repro.errors.ShardWorkerError` (wire code ``shard-worker``, HTTP
503) naming the shard; a live worker's failure spends no respawn and
re-sends nothing, since the query may still be running there.
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
from repro.query_model import Query, QueryType, as_query
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


class _RemoteMethodInfo:
    """Read-only stand-in for a worker-resident Method M (name + describe)."""

    def __init__(self, describe_payload: dict) -> None:
        self.name = str(describe_payload.get("method_name", "unknown"))
        self._description = dict(describe_payload.get("method") or {})

    def describe(self) -> dict:
        return dict(self._description)


class ProcessShardBackend:
    """Spawns every shard's worker process, replaces one, and closes them all."""

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
        self._closed = False

        self.clients: list[ProcessShardClient] = []
        started: list[tuple] = []
        try:
            # start every worker first, then collect handshakes: startup
            # (imports + index build) overlaps across workers
            for index in range(len(self._partitions)):
                started.append(self._start_process(index))
            for index, (process, ready) in enumerate(started):
                port, describe = self._await_ready(index, process, ready)
                self.clients.append(ProcessShardClient(
                    self, index, partitions[index], shard_config, process, port, describe))
        except Exception:
            self._teardown(started)
            raise

    @property
    def respawns_performed(self) -> int:
        """Workers successfully replaced after a crash, over every shard."""
        return sum(client.respawns for client in self.clients)

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

    def respawn(self, index: int) -> tuple:
        """A cold replacement for shard ``index``'s worker: ``(process, port, describe)``."""
        process, ready = self._start_process(index)
        try:
            port, describe = self._await_ready(index, process, ready)
        except ShardWorkerError:
            process.terminate()
            raise
        return process, port, describe

    # ------------------------------------------------------------------ #
    # observability
    # ------------------------------------------------------------------ #
    def liveness(self) -> list[dict]:
        """One row per worker: alive/pid/port plus respawn accounting."""
        rows = []
        for client in self.clients:
            with client._lock:
                process, port, attempts = client.process, client.port, client.respawn_attempts
            rows.append({
                "shard": client.index,
                "backend": "process",
                "alive": process.is_alive(),
                "pid": process.pid,
                "port": port,
                "respawns": attempts,
                "respawns_left": RESPAWN_LIMIT - attempts,
            })
        return rows

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
        if self._closed:
            return
        self._closed = True
        workers = []
        for client in self.clients:
            with client._lock:  # waits out a respawn in progress
                workers.append((client.process, client.port, client.service))
        for _, port, _ in workers:
            try:
                # its own short-timeout client: a hung worker must not hold
                # close() for the length of a query timeout
                with RemoteGraphService("127.0.0.1", port, timeout=5.0) as farewell:
                    farewell.request("POST", "/admin/shutdown", {})
            except Exception:
                pass  # a dead worker cannot drain; terminate below
        for process, _, service in workers:
            process.join(timeout=5.0)
            if process.is_alive():
                process.terminate()
                process.join(timeout=2.0)
            service.close_all()


class ProcessShardClient:
    """One shard's proxy: the GraphCacheSystem shard surface over its worker.

    It owns the worker — process, port, :class:`RemoteGraphService`, respawn
    count — and replaces it (through its backend) when it dies.
    ``cache`` is ``None`` (the real cache lives in the worker).
    ``statistics`` is a coordinator-side mirror recording the full
    per-query reports the worker returns, so ``/metrics`` fan-in reads
    genuine numbers.
    """

    cache = None

    def __init__(self, backend: ProcessShardBackend, index: int,
                 partition: Sequence[Graph], config: GCConfig,
                 process, port: int, describe: dict) -> None:
        self._backend = backend
        self.index = index
        self.dataset = list(partition)
        self.config = config
        self.statistics = StatisticsManager()
        #: Replacements of this shard's worker begun, successful or not: the
        #: budget spent (at most RESPAWN_LIMIT).
        self.respawn_attempts = 0
        #: Replacements that came up and answer in the crashed worker's place.
        self.respawns = 0
        #: Guards the worker fields while a respawn swaps them.
        self._lock = threading.Lock()
        self._attach(process, port, describe)

    def _attach(self, process, port: int, describe: dict) -> None:
        self.process = process
        self.port = port
        self.service = RemoteGraphService("127.0.0.1", port,
                                          timeout=self._backend._request_timeout)
        #: Name and description of the worker's Method M, from its handshake.
        self.method = _RemoteMethodInfo(describe)

    # -- transport (the calling thread → its connection → the worker) --- #
    def _call_many(self, requests: list[tuple]) -> list[tuple[int, dict]]:
        """``(method, path, body)`` requests to the worker, with crash recovery.

        The requests go out one after the other over the calling thread's
        keep-alive connection; outcomes return in submission order.  A
        transport failure against a *dead* worker spends respawn budget,
        brings up a cold replacement and carries on from the failed position
        there (every endpoint driven through here is answer-safe to
        re-execute) — completed answers are kept exactly once, so a crash
        can neither drop nor duplicate an answer.  A transport failure
        against a live worker is a :class:`ShardWorkerError` — the client
        already retried a stale keep-alive connection once, and a timeout
        must never re-run a query that may still be executing.
        """
        results: list[tuple[int, dict]] = []
        attempts = 0
        while len(results) < len(requests):
            if self._backend._closed:
                raise ServerError("process shard backend is closed")
            service = self.service
            try:
                for request in requests[len(results):]:
                    results.append(service.request(*request))
            except OSError as failure:  # every transport failure the client raises
                self._recover(service, failure)
                attempts += 1
                if attempts > RESPAWN_LIMIT + 1:  # pragma: no cover - safety net
                    raise ShardWorkerError(self.index, "worker kept failing after respawn",
                                           self.respawn_attempts)
        return results

    def _recover(self, failed: RemoteGraphService, failure: OSError) -> None:
        """Replace a dead worker under budget; generation-safe across threads.

        Many in-flight requests can fail together when one worker dies; only
        the first caller spends budget and respawns, the rest observe the
        swapped client and simply retry.  A failure against a worker that
        is demonstrably alive is not a crash: it raises, re-sending nothing.
        """
        reason = f"{type(failure).__name__}: {failure}"
        with self._lock:
            if self.service is not failed:
                return  # a sibling thread already replaced this worker
            # NB: TimeoutError subclasses OSError — a timed-out worker is busy,
            # not dying; any other failure gives a dying worker a beat to reap
            if not isinstance(failure, TimeoutError):
                self.process.join(timeout=0.5)
            if self.process.is_alive():
                raise ShardWorkerError(self.index, f"live worker failed a request ({reason})",
                                       self.respawn_attempts) from failure
            reason = f"worker lost an in-flight request ({reason})"
            if self.respawn_attempts >= RESPAWN_LIMIT:
                logger.error("shard %d worker down (%s); respawn budget exhausted",
                             self.index, reason)
                raise ShardWorkerError(self.index, f"{reason}; respawn budget exhausted",
                                       self.respawn_attempts) from failure
            failed.close_all()
            # the attempt spends budget before the spawn, so a replacement
            # that fails to start is not retried by every later request
            self.respawn_attempts += 1
            self._attach(*self._backend.respawn(self.index))
            self.respawns += 1
            logger.warning(
                "shard %d worker respawned after crash (%s); "
                "%d respawn(s) left for this shard",
                self.index, reason, RESPAWN_LIMIT - self.respawn_attempts,
            )

    def _expect(self, method: str, path: str, body: dict | None = None) -> dict:
        """One admin or observability request, insisting on a 200 payload.

        These arrive on whatever thread asks — an HTTP handler scraping
        ``/metrics``, the caller of ``warm_cache`` — so the connection is
        closed again instead of staying parked on a thread that may never
        come back.
        """
        try:
            status, payload = self._call_many([(method, path, body)])[0]
        finally:
            self.service.close()
        return expect_ok(f"shard {self.index} {path}", status, payload)

    def _admin(self, path: str, body: dict | None = None) -> dict:
        return self._expect("POST", path, body or {})

    # -- query execution ------------------------------------------------ #
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
        return self.run_batch([query], query_type)[0]

    def run_queries(self, queries, query_type: QueryType | str = QueryType.SUBGRAPH):
        return [self.run_query(query, query_type) for query in queries]

    def run_batch(self, queries, query_type: QueryType | str = QueryType.SUBGRAPH):
        """POST a share of a batch, one envelope after the other (in order)."""
        query_list = [as_query(query, query_type) for query in queries]
        # the request envelope lifts the trace carrier onto its own "trace"
        # section — this is the loopback hop the trace context must survive
        outcomes = self._call_many([
            ("POST", "/query",
             QueryRequest.from_query(query, request_id=query.query_id).to_wire())
            for query in query_list
        ])
        reports = [
            self._report_from(query, status, payload)
            for query, (status, payload) in zip(query_list, outcomes)
        ]
        for report in reports:
            self.statistics.record(report)
        return reports

    # -- shard lifecycle hooks ------------------------------------------ #
    def flush_window(self) -> None:
        self._admin("/admin/flush-window")

    def reset_remote_statistics(self) -> None:
        self._admin("/admin/reset-statistics")

    def save_snapshot(self, path) -> int:
        return self._snapshot("save", path)

    def restore_snapshot(self, path) -> int:
        return self._snapshot("restore", path)

    def _snapshot(self, action: str, path) -> int:
        payload = self._admin(f"/admin/snapshot/{action}", {"path": str(path)})
        return int(payload.get("entries", 0))

    # -- observability --------------------------------------------------- #
    def remote_describe(self) -> dict:
        """A live ``/describe`` of the worker (cache population, memory)."""
        return self._expect("GET", "/describe")

    def registry_snapshot(self) -> dict:
        """The worker's own :class:`MetricsRegistry` snapshot (for fan-in)."""
        return self._expect("GET", "/obs/registry")

    def drain_logs(self) -> dict:
        """Pop the worker's buffered warning/error log entries."""
        return self._admin("/admin/logs/drain")

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
