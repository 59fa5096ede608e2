"""Shard worker process: one unsharded GraphCacheSystem behind the envelope wire.

The process shard backend spawns one of these per shard
(``multiprocessing`` *spawn* context — no inherited locks or sockets; the
partition arrives as pickled graphs, everything else is rebuilt from
serialised payloads).  Each worker hosts its
own :class:`~repro.runtime.system.GraphCacheSystem` over its partition —
its own Method M index, its own thread-safe cache, its own admission window
— and fronts it with a minimal loopback HTTP app speaking **the same envelope
protocol** as the public query server
(:func:`~repro.api.envelopes.parse_request`, taxonomy-classified
:class:`~repro.api.envelopes.ErrorEnvelope` on failure, a typed 400 for a
payload that declares no or another version).  The coordinator therefore
needs no wire format of its own: its transport is the stock blocking
:class:`~repro.api.remote.RemoteGraphService`.

The one difference from the public surface: a shard worker's ``POST /query``
success payload *is* the :class:`~repro.runtime.report.QueryReport` — its
``result`` object holds every field the coordinator's scatter-gather merge
reads (journey sets included, :func:`report_to_wire`), where the public
:class:`QueryResponse` only summarises them.  ``answer`` is one of those
fields, so the payload still parses as a plain response envelope.

``/admin/*`` endpoints cover the shard lifecycle the in-process backend gets
for free: window flush (warm-up), statistics reset, snapshot save/restore
(worker-side file I/O — coordinator and workers share a filesystem), and
graceful shutdown.
"""

from __future__ import annotations

import logging
import threading
import time

from repro import __version__
from repro.api.envelopes import (
    PROTOCOL_VERSION,
    ErrorEnvelope,
    parse_request,
)
from repro.cache.statistics import json_safe
from repro.graph.graph import Graph
from repro.obs.collectors import recorder_samples, system_samples
from repro.obs.logs import BufferedLogHandler, current_trace_id, get_logger
from repro.obs.metrics import MetricsRegistry
from repro.obs.recorder import DEFAULT_BUFFER_SIZE, get_recorder
from repro.obs.trace import Span
from repro.query_model import Query
from repro.runtime.config import GCConfig
from repro.runtime.report import QueryReport
from repro.runtime.system import GraphCacheSystem
from repro.server.adapter import HTTPAdapter, Reply, RoutedApp

logger = get_logger("sharding.worker")


# ---------------------------------------------------------------------- #
# the report as the ``result`` of a worker's reply
# ---------------------------------------------------------------------- #
def report_to_wire(report: QueryReport) -> dict:
    """Every :class:`QueryReport` field the merge consumes, as JSON values.

    Every value is JSON-native by construction — graph ids are ints or
    strings, hit entries cache entry ids, costs ints and finite seconds — so
    the sets go out as plain (unordered) lists with no sanitising walk.
    """
    wire = {
        "answer": list(report.answer),
        "exact_hit_entry": report.exact_hit_entry,
        "sub_hit_entries": report.sub_hit_entries,
        "super_hit_entries": report.super_hit_entries,
        "method_candidates": list(report.method_candidates),
        "guaranteed_answers": list(report.guaranteed_answers),
        "guaranteed_non_answers": list(report.guaranteed_non_answers),
        "verified_candidates": list(report.verified_candidates),
        "verified_answers": list(report.verified_answers),
        "cache_population": report.cache_population,
        "dataset_tests": report.dataset_tests,
        "probe_tests": report.probe_tests,
        "filter_seconds": report.filter_seconds,
        "probe_seconds": report.probe_seconds,
        "verify_seconds": report.verify_seconds,
        "total_seconds": report.total_seconds,
        "baseline_tests": report.baseline_tests,
        "baseline_seconds": report.baseline_seconds,
        "stage_seconds": report.stage_seconds,
    }
    if report.spans:
        # the worker-side span subtree of a traced query, so the
        # coordinator's recorder sees one coherent cross-process tree
        # (span attributes are free-form: these do get sanitised)
        wire["spans"] = json_safe([span.to_dict() for span in report.spans])
    return wire


def report_from_wire(query: Query, payload: dict) -> QueryReport:
    """Rebuild the shard's :class:`QueryReport` around the coordinator's query."""
    return QueryReport(
        query=query,
        exact_hit_entry=payload.get("exact_hit_entry"),
        sub_hit_entries=list(payload.get("sub_hit_entries", [])),
        super_hit_entries=list(payload.get("super_hit_entries", [])),
        method_candidates=set(payload.get("method_candidates", [])),
        guaranteed_answers=set(payload.get("guaranteed_answers", [])),
        guaranteed_non_answers=set(payload.get("guaranteed_non_answers", [])),
        verified_candidates=set(payload.get("verified_candidates", [])),
        verified_answers=set(payload.get("verified_answers", [])),
        answer=set(payload.get("answer", [])),
        cache_population=int(payload.get("cache_population", 0)),
        dataset_tests=int(payload.get("dataset_tests", 0)),
        probe_tests=int(payload.get("probe_tests", 0)),
        filter_seconds=float(payload.get("filter_seconds", 0.0)),
        probe_seconds=float(payload.get("probe_seconds", 0.0)),
        verify_seconds=float(payload.get("verify_seconds", 0.0)),
        total_seconds=float(payload.get("total_seconds", 0.0)),
        baseline_tests=int(payload.get("baseline_tests", 0)),
        baseline_seconds=float(payload.get("baseline_seconds", 0.0)),
        stage_seconds=dict(payload.get("stage_seconds", {})),
        spans=[Span.from_dict(span) for span in payload.get("spans", [])
               if isinstance(span, dict)],
    )


# ---------------------------------------------------------------------- #
# the worker HTTP app
# ---------------------------------------------------------------------- #
class ShardWorkerApp(RoutedApp):
    """HTTP-agnostic request handling for one shard worker."""

    server_version = f"GraphCacheShardWorker/{__version__}"

    routes = {
        ("POST", "/query"): lambda self, params, payload: self.serve_query(payload),
        ("POST", "/admin/flush-window"): lambda self, params, payload: self.flush_window(),
        ("POST", "/admin/reset-statistics"): lambda self, params, payload: (
            self.reset_statistics()),
        ("POST", "/admin/snapshot/save"): lambda self, params, payload: (
            self.snapshot(self.system.save_snapshot, payload)),
        ("POST", "/admin/snapshot/restore"): lambda self, params, payload: (
            self.snapshot(self.system.restore_snapshot, payload)),
        ("POST", "/admin/logs/drain"): lambda self, params, payload: self.drain_logs(),
        ("POST", "/admin/shutdown"): lambda self, params, payload: self.shutdown(),
        ("GET", "/describe"): lambda self, params, payload: (200, self.describe()),
        ("GET", "/obs/registry"): lambda self, params, payload: (
            200, self.registry.snapshot()),
    }

    def __init__(self, system: GraphCacheSystem, shard_index: int,
                 log_handler: BufferedLogHandler | None = None) -> None:
        self.system = system
        self.shard_index = shard_index
        #: The worker's buffered warning/error log, drained by the
        #: coordinator over ``POST /admin/logs/drain``.
        self.log_handler = log_handler
        #: Stops the transport serving this app (``POST /admin/shutdown``);
        #: whoever binds the app to a transport sets it.
        self.stop_serving = lambda: None
        #: This worker's own telemetry registry, fanned into the
        #: coordinator's text exposition under a ``shard`` label.
        self.registry = MetricsRegistry()
        self._requests = self.registry.counter(
            "worker_requests_total", help="Envelope queries served by this worker")
        self._request_errors = self.registry.counter(
            "worker_request_errors_total", help="Envelope queries that failed")
        self._latency = self.registry.histogram(
            "worker_query_seconds", help="Worker-side query latency")
        self.registry.register_collector(lambda: system_samples(self.system))
        self.registry.register_collector(lambda: recorder_samples(get_recorder()))

    def describe(self) -> dict:
        """Everything the coordinator mirrors about this worker's system."""
        payload = {
            "shard": self.shard_index,
            "method_name": self.system.method.name,
            "method": self.system.method.describe(),
            "dataset_size": len(self.system.dataset),
            "cache": (self.system.cache.describe()
                      if self.system.cache is not None else None),
            "cache_memory_bytes": self.system.cache_memory_bytes(),
            "index_memory_bytes": self.system.index_memory_bytes(),
        }
        return json_safe(payload)

    def serve_query(self, payload: dict) -> tuple[int, dict]:
        """Execute one envelope query; success replies with the full report."""
        try:
            request = parse_request(payload)
        except Exception as exc:
            self._request_errors.inc()
            envelope = ErrorEnvelope.from_exception(exc)
            return envelope.http_status, envelope.to_wire()
        self._requests.inc()
        query = request.to_query()
        # log lines of a traced query carry its trace id (the coordinator
        # stamps the shard on the spans this report ships back)
        trace_token = None
        if request.trace is not None:
            trace_token = current_trace_id.set(request.trace.trace_id)
        started = time.perf_counter()
        try:
            report = self.system.run_query(query)
        except Exception as exc:
            self._request_errors.inc()
            logger.error("shard %d query failed: %s: %s",
                         self.shard_index, type(exc).__name__, exc)
            envelope = ErrorEnvelope.from_exception(exc, request_id=request.request_id)
            return envelope.http_status, envelope.to_wire()
        finally:
            self._latency.observe(time.perf_counter() - started)
            if trace_token is not None:
                current_trace_id.reset(trace_token)
        wire = {"version": PROTOCOL_VERSION, "result": report_to_wire(report)}
        if request.request_id is not None:
            wire["request_id"] = request.request_id
        return 200, wire

    # -- shard lifecycle endpoints the coordinator drives ----------------- #
    def flush_window(self) -> Reply:
        self.system.flush_window()
        return 200, {"ok": True}

    def reset_statistics(self) -> Reply:
        self.system.statistics.reset()
        return 200, {"ok": True}

    @staticmethod
    def snapshot(action, payload: object) -> Reply:
        """Save or restore (``action``) the snapshot file the body names."""
        target = payload.get("path") if isinstance(payload, dict) else None
        if not isinstance(target, str) or not target:
            return 400, {"error": "'path' must be a non-empty string"}
        return 200, {"entries": action(target)}

    def drain_logs(self) -> Reply:
        if self.log_handler is None:
            return 200, {"entries": [], "dropped": 0}
        return 200, self.log_handler.drain()

    def shutdown(self) -> Reply:
        # reply first, then stop the serve loop off-thread (stopping it from
        # a handler thread would deadlock the loop waiting on that handler)
        threading.Thread(target=self.stop_serving, daemon=True).start()
        return 200, {"ok": True}


def worker_main(
    ready,
    dataset: list[Graph],
    config_payload: dict,
    shard_index: int,
    method_factory=None,
) -> None:
    """Entry point of a spawned shard worker process.

    Receives the partition as unpickled graphs, rebuilds the per-shard
    configuration, builds the system (config-driven method unless a picklable
    ``method_factory`` was shipped), binds the loopback app on an ephemeral
    port, reports ``{"port", "describe"}`` on the ``ready`` pipe, and serves
    until ``/admin/shutdown`` (or the process is killed).  A startup failure
    is reported as ``{"error": ...}`` on the pipe so the coordinator can
    surface the real reason instead of a bare handshake timeout.
    """
    try:
        # buffer warnings/errors for the coordinator to drain and re-emit
        # under this shard's name: a spawned child shares the coordinator's
        # stderr, but only the forwarded lines say which shard wrote them
        log_handler = BufferedLogHandler()
        logging.getLogger("repro").addHandler(log_handler)
        config = GCConfig.from_dict(config_payload)
        get_recorder().configure(
            buffer_size=DEFAULT_BUFFER_SIZE,
            slow_threshold_seconds=config.slow_query_threshold_s,
        )
        method = method_factory() if method_factory is not None else None
        system = GraphCacheSystem(dataset, config, method=method)
        app = ShardWorkerApp(system, shard_index, log_handler=log_handler)
        httpd = HTTPAdapter(("127.0.0.1", 0), app)
        app.stop_serving = httpd.shutdown
    except Exception as exc:
        try:
            ready.send({"error": f"{type(exc).__name__}: {exc}"})
        finally:
            ready.close()
        return
    try:
        ready.send({"port": httpd.server_address[1], "describe": app.describe()})
        ready.close()
        httpd.serve_forever()
    finally:
        httpd.server_close()
        system.close()
