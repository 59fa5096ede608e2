"""QueryServer: an embedded HTTP serving boundary over a GraphCacheSystem.

Stdlib only.  The server owns one shared :class:`GraphCacheSystem` —
thread-safe cache, staged pipeline — and fronts it with a
:class:`RequestBatcher` (bounded admission queue + batch coalescing).  It
is a :class:`~repro.server.adapter.RoutedApp`: a route table of endpoints
that return ``(status, body)`` and never see a socket;
:class:`~repro.server.adapter.HTTPAdapter` is the transport.  It speaks the
one envelope protocol of :mod:`repro.api.envelopes`: every request declares
``"version": 2`` and every reply — success or error — is an envelope, errors
classified through the :mod:`repro.api.taxonomy` table (stable ``code`` +
HTTP status — never message-string parsing).  Endpoints:

* ``POST /query``        — one JSON graph query envelope; replies with the
  answer set and per-stage latency.  ``429`` when the admission queue is
  full, ``400`` on malformed payloads — a missing or foreign ``version``
  included, the error naming the version spoken — ``503`` while draining,
  ``504`` on timeout.
* ``POST /record/start`` / ``POST /record/stop`` — server-side trace
  recording: persist the live request stream as a replayable trace.
* ``GET /metrics``       — the :class:`StatisticsManager` snapshot (running
  sums: hit rate, tests, speedups, stage breakdown) plus cache population,
  JSON, of a size that does not grow with the queries served.  With
  ``?format=text`` the unified telemetry registry renders Prometheus-style
  text instead, fanning in process-worker registries as ``shard="i"`` series.
* ``GET /stats``         — serving-side counters: admission/batching/uptime.
* ``GET /health``        — liveness probe; with a process shard backend the
  payload carries per-worker liveness + respawn counts and degrades the
  status when a worker is down.
* ``GET /debug/traces``  — recent/slowest span trees from the in-process
  span recorder, plus slow-query exemplars (``?trace_id=``, ``?sort=``,
  ``?count=``).

Lifecycle: ``start()`` serves on a background thread; ``stop()`` performs a
graceful drain (no accepted query is dropped), persists the cache snapshot
when a ``snapshot_path`` is configured, and closes the system.  A restarted
server pointed at the same snapshot path starts *warm*.
"""

from __future__ import annotations

import random
import threading
import time
import uuid
from concurrent.futures import TimeoutError as FutureTimeoutError
from pathlib import Path

from repro import __version__
from repro.api.envelopes import (
    ErrorEnvelope,
    MetricsSnapshot,
    parse_request,
)
from repro.api.recording import TraceRecorder
from repro.cache.statistics import json_safe
from repro.errors import DeadlineExceededError, ProtocolError, RecordingStateError
from repro.graph.graph import Graph
from repro.methods.base import MethodM
from repro.obs.collectors import (
    batcher_samples,
    recorder_samples,
    scatter_samples,
    system_samples,
)
from repro.obs.logs import current_trace_id, get_logger
from repro.obs.metrics import COUNTER, GAUGE, MetricsRegistry, Sample
from repro.obs.recorder import DEFAULT_BUFFER_SIZE, SpanScope, configure_recorder, sampled
from repro.runtime.config import GCConfig
from repro.server.adapter import HTTPAdapter, RoutedApp
from repro.server.batcher import RequestBatcher
from repro.sharding import make_system

logger = get_logger("server")


class QueryServer(RoutedApp):
    """Embedded graph-query server: batching, backpressure, live metrics.

    With ``config.num_shards > 1`` the server fronts a
    :class:`~repro.sharding.system.ShardedGraphCacheSystem`: queries are
    scattered across the shards and merged transparently, ``/metrics`` grows
    per-shard and ``scatter`` sections (skip rates, fan-out, summary health),
    and cache snapshots fan out to per-shard files.  With
    ``config.scatter_mode="short-circuit"`` the scatter planner prunes shards
    that provably cannot contribute.  A sharded server takes ``method`` as a
    zero-argument factory (each shard builds its own Method M over its
    partition); a built instance only fits one shard.  A ``429`` always
    means the batcher's bounded queue (``max_queue_depth``) is full.
    """

    server_version = f"GraphCacheServer/{__version__}"

    routes = {
        ("POST", "/query"): lambda self, params, payload: self.serve_query(payload),
        ("POST", "/record/start"): lambda self, params, payload: self.record_start(
            payload if isinstance(payload, dict) else {}),
        ("POST", "/record/stop"): lambda self, params, payload: self.record_stop(),
        ("GET", "/metrics"): lambda self, params, payload: (
            200, self.metrics_text() if params.get("format", [""])[0] == "text"
            else self.metrics()),
        ("GET", "/stats"): lambda self, params, payload: (200, self.stats()),
        ("GET", "/health"): lambda self, params, payload: (200, self.health()),
        ("GET", "/debug/traces"): lambda self, params, payload: self.debug_traces(params),
    }

    def __init__(
        self,
        dataset: list[Graph],
        config: GCConfig | None = None,
        method: MethodM | None = None,
        host: str = "127.0.0.1",
        port: int = 0,
        max_batch_size: int = 4,
        max_queue_depth: int = 64,
        snapshot_path: str | Path | None = None,
        request_timeout_seconds: float = 60.0,
    ) -> None:
        self.system = make_system(dataset, config, method=method)
        try:
            # bind before spawning the batcher thread or touching the
            # snapshot: a failed bind (port in use) must not leak either
            self._httpd = HTTPAdapter((host, port), self)
        except OSError:
            self.system.close()
            raise
        try:
            self.snapshot_path = Path(snapshot_path) if snapshot_path is not None else None
            self.restored_entries = 0
            if self.snapshot_path is not None:
                self.restored_entries = self.system.restore_snapshot(self.snapshot_path)
            self.batcher = RequestBatcher(
                self.system,
                max_batch_size=max_batch_size,
                max_queue_depth=max_queue_depth,
            )
        except Exception:
            self._httpd.server_close()
            self.system.close()
            raise
        self.recorder = TraceRecorder()
        self.request_timeout_seconds = request_timeout_seconds
        self._thread: threading.Thread | None = None
        self._started_at = time.monotonic()
        self._stopped = False
        # --- observability: span recorder knobs + unified metrics registry
        cfg = self.system.config
        self.trace_sample_rate = cfg.trace_sample_rate
        # dedicated RNG: the sampling decision must never consume the global
        # seeded stream that workload generators depend on for determinism
        self._sample_rng = random.Random(uuid.uuid4().int)
        self.span_recorder = configure_recorder(
            buffer_size=DEFAULT_BUFFER_SIZE,
            slow_threshold_seconds=cfg.slow_query_threshold_s,
        )
        self.registry = MetricsRegistry()
        self._request_outcomes = {
            outcome: self.registry.counter(
                "gc_server_requests_total",
                help="Query requests by terminal outcome",
                outcome=outcome,
            )
            for outcome in ("ok", "rejected", "error", "timeout", "protocol-error")
        }
        self._request_latency = self.registry.histogram(
            "gc_server_request_seconds",
            help="End-to-end served-request latency (admission to response)",
        )
        self._queue_latency = self.registry.histogram(
            "gc_server_queue_wait_seconds",
            help="Seconds served requests waited in the admission queue",
        )
        self.registry.register_collector(lambda: system_samples(self.system))
        self.registry.register_collector(lambda: batcher_samples(self.batcher))
        self.registry.register_collector(
            lambda: recorder_samples(self.span_recorder))
        if getattr(self.system, "planner", None) is not None:
            self.registry.register_collector(lambda: scatter_samples(self.system))
        self.registry.register_collector(self._runtime_samples)

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #
    @property
    def host(self) -> str:
        return self._httpd.server_address[0]

    @property
    def port(self) -> int:
        return self._httpd.server_address[1]

    @property
    def address(self) -> str:
        return f"http://{self.host}:{self.port}"

    def start(self) -> "QueryServer":
        """Serve on a background thread; returns self for chaining."""
        if self._thread is None:
            self._thread = threading.Thread(
                target=self._httpd.serve_forever,
                name="gc-query-server",
                daemon=True,
            )
            self._thread.start()
        return self

    def stop(self, drain: bool = True) -> None:
        """Graceful shutdown: drain the batcher, snapshot, close the system."""
        if self._stopped:
            return
        self._stopped = True
        self.batcher.close(drain=drain)
        if self.snapshot_path is not None:
            self.system.save_snapshot(self.snapshot_path)
        if self._thread is not None:
            # shutdown() waits for a running serve loop: never started, it
            # would wait forever
            self._httpd.shutdown()
            self._thread.join()
        self._httpd.server_close()
        self.system.close()

    def __enter__(self) -> "QueryServer":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()

    # ------------------------------------------------------------------ #
    # request handling (HTTP-agnostic: returns status + JSON payload)
    # ------------------------------------------------------------------ #
    @staticmethod
    def _error(exc: BaseException, request_id=None) -> tuple[int, dict]:
        """Render any exception as its taxonomy row's status and envelope."""
        envelope = ErrorEnvelope.from_exception(exc, request_id=request_id)
        return envelope.http_status, envelope.to_wire()

    def _begin_request_trace(self, request) -> SpanScope | None:
        """Open the ``server.request`` scope and re-root the request's trace.

        A client-supplied context is always honoured (its span becomes the
        parent); otherwise the server samples at ``trace_sample_rate`` and
        starts a fresh trace.  The request's trace is rewritten so everything
        downstream — queue, batch, plan, scatter, worker pipelines — parents
        on this server span.
        """
        client = request.trace
        if client is None:
            if not sampled(self.trace_sample_rate, self._sample_rng):
                return None
        elif not client.sampled:
            return None
        scope = SpanScope("server.request", client)
        request.trace = scope.context
        return scope

    def _finish_request_trace(self, scope: SpanScope | None, served=None,
                              outcome: str = "ok") -> None:
        """Close the server spans and complete the trace in the recorder."""
        if scope is None:
            return
        spans = []
        scatter = None
        if served is not None:
            # queue wait then batch execution, back to back under the
            # server.request span — the gap between them is dispatch overhead
            spans = [
                scope.span("server.queue", 0.0, served.queue_seconds),
                scope.span("server.batch", served.queue_seconds,
                           served.report.total_seconds,
                           {"batch_size": served.batch_size}),
            ]
            plan = served.report.query.metadata.get("scatter")
            if isinstance(plan, dict):
                scatter = plan
        own = scope.close({"outcome": outcome}, spans=spans)
        self.span_recorder.complete(own.trace_id, own.duration_seconds, scatter=scatter)

    def serve_query(self, payload: dict) -> tuple[int, dict]:
        """Admit, batch and execute one query envelope.

        The one place a request's terminal outcome is decided: counters,
        latency histograms, trace closure and the wire body.
        """
        started = time.perf_counter()
        try:
            request = parse_request(payload)
        except ProtocolError as exc:
            self._request_outcomes["protocol-error"].inc()
            return self._error(exc)
        self.recorder.record(request)
        scope = self._begin_request_trace(request)
        if scope is None:
            return self._serve(request, started, None)
        token = current_trace_id.set(scope.context.trace_id)
        try:
            return self._serve(request, started, scope)
        finally:
            current_trace_id.reset(token)

    def _serve(self, request, started: float, scope: SpanScope | None) -> tuple[int, dict]:
        """Submit, wait and reply; ``scope`` (if any) is closed on every outcome."""
        try:
            future = self.batcher.submit(request)
        except Exception as exc:  # admission rejected / draining
            self._request_outcomes["rejected"].inc()
            self._finish_request_trace(scope, outcome="rejected")
            return self._error(exc, request.request_id)
        wait = self.request_timeout_seconds
        if request.deadline_seconds is not None:
            # don't hold the connection past the caller's own budget
            wait = min(wait, request.deadline_seconds)
        try:
            served = future.result(timeout=wait)
        except FutureTimeoutError:
            # the waiter is gone: mark the queue entry dead so the batcher
            # sheds it instead of executing zombie work
            self.batcher.abandon(future, request_id=request.request_id)
            self._request_outcomes["timeout"].inc()
            self._finish_request_trace(scope, outcome="timeout")
            envelope = ErrorEnvelope.timeout(
                "query timed out in the serving pipeline",
                request_id=request.request_id,
            )
            return envelope.http_status, envelope.to_wire()
        except DeadlineExceededError as exc:  # shed in the admission queue
            self._request_outcomes["timeout"].inc()
            self._finish_request_trace(scope, outcome="shed")
            return self._error(exc, request.request_id)
        except Exception as exc:  # execution error inside the pipeline
            self._request_outcomes["error"].inc()
            self._finish_request_trace(scope, outcome="error")
            logger.warning("query %s failed in the pipeline: %s: %s",
                           request.request_id, type(exc).__name__, exc)
            return self._error(exc, request.request_id)
        self._request_outcomes["ok"].inc()
        self._request_latency.observe(time.perf_counter() - started)
        self._queue_latency.observe(served.queue_seconds)
        self._finish_request_trace(scope, served=served)
        response = served.to_response(request_id=request.request_id)
        if scope is not None:
            response.trace_id = scope.context.trace_id
        return 200, response.to_wire()

    # ------------------------------------------------------------------ #
    # trace recording
    # ------------------------------------------------------------------ #
    def record_start(self, payload: dict) -> tuple[int, dict]:
        """Begin recording the live request stream (``POST /record/start``)."""
        name = payload.get("name")
        path = payload.get("path")
        if name is not None and not isinstance(name, str):
            return self._error(ProtocolError("'name' must be a string"))
        if path is not None and not isinstance(path, str):
            return self._error(ProtocolError("'path' must be a string"))
        try:
            return 200, self.recorder.start(name=name, path=path)
        except RecordingStateError as exc:
            return self._error(exc)

    def record_stop(self) -> tuple[int, dict]:
        """Stop recording; persist and/or return the trace (``/record/stop``).

        When the server-side persist fails the trace comes back inline
        instead (never lost), with the write error noted in its metadata.
        """
        try:
            trace, path = self.recorder.stop()
        except RecordingStateError as exc:
            return self._error(exc)
        payload: dict = {"recorded": len(trace), "name": trace.name, "path": path}
        if path is None:
            payload["trace"] = trace.to_dict()
        return 200, payload

    # ------------------------------------------------------------------ #
    # observability
    # ------------------------------------------------------------------ #
    def metrics(self) -> dict:
        """The ``/metrics`` payload: statistics snapshot + cache population.

        For a sharded system the statistics snapshot already carries the
        per-shard aggregates; ``shards``/``router``/``scatter`` sections add
        each shard's population and what short-circuit scatter did (see
        :class:`repro.api.envelopes.MetricsSnapshot`).
        """
        return MetricsSnapshot.from_system(self.system).to_wire()

    def stats(self) -> dict:
        """The ``/stats`` payload: serving-side counters and identity."""
        return {
            "server": {
                "version": __version__,
                "address": self.address,
                "uptime_seconds": round(time.monotonic() - self._started_at, 3),
                "restored_entries": self.restored_entries,
                "snapshot_path": str(self.snapshot_path) if self.snapshot_path else None,
                "draining": self.batcher.closed,
            },
            "recording": {
                "active": self.recorder.active,
                "recorded": self.recorder.recorded,
            },
            "batcher": self.batcher.stats().to_dict(),
            "config": json_safe(self.system.config.to_dict()),
            "dataset_size": len(self.system.dataset),
        }

    def _runtime_samples(self):
        """Registry collector: uptime and worker liveness."""
        yield Sample("gc_server_uptime_seconds", GAUGE,
                     time.monotonic() - self._started_at,
                     help="Seconds since the server started")
        liveness = getattr(self.system, "worker_liveness", None)
        if liveness is not None:
            for row in liveness():
                labels = {"shard": str(row.get("shard"))}
                yield Sample("gc_worker_alive", GAUGE,
                             1.0 if row.get("alive") else 0.0,
                             help="1 when the shard's worker is live",
                             labels=dict(labels))
                yield Sample("gc_worker_respawns_total", COUNTER,
                             float(row.get("respawns", 0)),
                             help="Times the shard's worker was respawned",
                             labels=dict(labels))

    def health(self) -> dict:
        """The ``/health`` payload: liveness plus per-worker detail.

        ``status`` stays ``"ok"`` on a healthy system (probes key on it);
        it degrades to ``"degraded"`` only when a shard worker is down.
        """
        payload: dict = {"status": "ok", "draining": self.batcher.closed}
        liveness = getattr(self.system, "worker_liveness", None)
        if liveness is not None:
            rows = liveness()
            payload["workers"] = rows
            if any(not row.get("alive", True) for row in rows):
                payload["status"] = "degraded"
        self._forward_worker_logs()
        return payload

    def metrics_text(self) -> str:
        """Prometheus-style text exposition (``GET /metrics?format=text``).

        The coordinator's registry plus — for process-backed shards — each
        worker's registry snapshot fanned in as ``shard="i"`` series.
        """
        fetch = getattr(self.system, "worker_registry_snapshots", None)
        extra = fetch() if fetch is not None else []
        return self.registry.render_text(extra=extra)

    def debug_traces(self, params: dict) -> tuple[int, dict]:
        """The ``/debug/traces`` payload: recent/slowest trees + exemplars.

        ``?trace_id=`` fetches one tree; ``?sort=recent|slowest`` and
        ``?count=N`` page the listing; slow-query exemplars always ride
        along so a threshold breach is one GET away from its span tree.
        """
        recorder = self.span_recorder
        trace_id = params.get("trace_id", [None])[0]
        if trace_id:
            tree = recorder.tree(trace_id)
            if tree is None:
                return 404, {"error": f"unknown trace_id {trace_id!r}"}
            return 200, {"trace": tree}
        sort = params.get("sort", ["recent"])[0]
        if sort not in ("recent", "slowest"):
            return 400, {"error": f"unknown sort {sort!r} (recent|slowest)"}
        try:
            count = int(params.get("count", ["10"])[0])
        except ValueError:
            return 400, {"error": "'count' must be an integer"}
        count = max(1, min(count, 100))
        traces = (recorder.recent(count) if sort == "recent"
                  else recorder.slowest(count))
        return 200, {
            "sort": sort,
            "traces": traces,
            "exemplars": recorder.exemplars(),
            "stats": recorder.stats(),
        }

    def _forward_worker_logs(self) -> None:
        """Replay buffered worker warnings into the coordinator log stream."""
        forward = getattr(self.system, "forward_worker_logs", None)
        if forward is not None:
            try:
                forward()
            except Exception as exc:  # a dying worker must not fail /health
                logger.warning("worker log drain failed: %s", exc)
