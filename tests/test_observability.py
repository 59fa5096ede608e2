"""End-to-end observability: tracing, span recorder, metrics registry, logs.

The contracts the telemetry layer must keep:

* the trace context is purely additive on the wire — v1 clients see no
  trace fields while the server still traces internally, and hypothesis's
  envelope round-trips stay lossless;
* one served query yields ONE coherent span tree: client send →
  server.request → queue/batch → plan/scatter → per-shard pipeline stages →
  merge — parent-linked even across the process-worker HTTP hop;
* tracing is observationally free: answer sets are identical with sampling
  at 0.0 and 1.0;
* the Prometheus text exposition parses and agrees with the JSON snapshot
  of the same registry;
* ``/health`` carries per-worker liveness without breaking the
  ``status == "ok"`` probe contract.
"""

from __future__ import annotations

import logging

import pytest

from repro.api.envelopes import QueryRequest, parse_request
from repro.api.remote import RemoteGraphService
from repro.errors import ServerError
from repro.graph import molecule_dataset
from repro.graph.operations import random_connected_subgraph
from repro.obs.logs import BufferedLogHandler, get_logger, replay_entries
from repro.obs.metrics import MetricsRegistry
from repro.obs.recorder import SpanRecorder, get_recorder
from repro.obs.trace import (
    TRACE_KEY,
    Span,
    TraceContext,
    build_tree,
    new_span_id,
    new_trace_id,
)
from repro.query_model import Query
from repro.runtime import GCConfig, GraphCacheSystem
from repro.server import QueryServer
from repro.sharding import ShardedGraphCacheSystem
from repro.workload import generate_trace


@pytest.fixture(scope="module")
def dataset():
    return molecule_dataset(18, min_vertices=7, max_vertices=13, rng=53)


@pytest.fixture(scope="module")
def trace_queries(dataset):
    return generate_trace(dataset, 16, skew="zipfian", query_type="mixed", seed=19)


def config(**overrides) -> GCConfig:
    payload = GCConfig(cache_capacity=12, window_size=4).to_dict()
    payload.update(overrides)
    return GCConfig.from_dict(payload)


def parse_prometheus_text(text: str) -> dict[str, float]:
    """``{'name{labels}': value}`` for every series line in the exposition."""
    series: dict[str, float] = {}
    for line in text.splitlines():
        if not line or line.startswith("#"):
            continue
        key, raw = line.rsplit(" ", 1)
        series[key] = float(raw)
    return series


# ---------------------------------------------------------------------- #
# metrics registry
# ---------------------------------------------------------------------- #
class TestMetricsRegistry:
    def test_counter_gauge_histogram_snapshot(self):
        registry = MetricsRegistry()
        requests = registry.counter("requests_total", help="requests", kind="ok")
        requests.inc()
        requests.inc(2)
        depth = registry.gauge("queue_depth", help="depth")
        depth.set(7)
        depth.inc(-3)
        latency = registry.histogram("latency_seconds", help="latency")
        for value in (0.0005, 0.02, 5.0):
            latency.observe(value)
        snapshot = registry.snapshot()
        families = snapshot["families"]
        counter = families["requests_total"]["samples"][0]
        assert counter["labels"] == {"kind": "ok"} and counter["value"] == 3
        assert families["queue_depth"]["samples"][0]["value"] == 4
        histogram = families["latency_seconds"]["samples"][0]
        assert histogram["count"] == 3
        assert histogram["sum"] == pytest.approx(5.0205)

    def test_counter_rejects_negative_and_kind_conflicts(self):
        registry = MetricsRegistry()
        counter = registry.counter("events_total", help="events")
        with pytest.raises(ValueError):
            counter.inc(-1)
        with pytest.raises(ValueError):
            registry.gauge("events_total", help="now a gauge")

    def test_text_exposition_agrees_with_snapshot(self):
        registry = MetricsRegistry()
        registry.counter("hits_total", help="hits", kind="exact").inc(5)
        registry.counter("hits_total", help="hits", kind="sub").inc(2)
        registry.gauge("ratio", help="ratio").set(0.25)
        histogram = registry.histogram("seconds", help="seconds")
        for value in (0.002, 0.002, 0.9):
            histogram.observe(value)
        series = parse_prometheus_text(registry.render_text())
        assert series['hits_total{kind="exact"}'] == 5
        assert series['hits_total{kind="sub"}'] == 2
        assert series["ratio"] == 0.25
        assert series["seconds_count"] == 3
        assert series["seconds_sum"] == pytest.approx(0.904)
        assert series['seconds_bucket{le="+Inf"}'] == 3
        # cumulative buckets are monotone non-decreasing
        buckets = [(key, value) for key, value in series.items()
                   if key.startswith("seconds_bucket")]
        values = [value for _, value in buckets]
        assert values == sorted(values)

    def test_worker_snapshots_fan_in_as_labelled_series(self):
        coordinator = MetricsRegistry()
        coordinator.counter("served_total", help="served").inc(10)
        worker = MetricsRegistry()
        worker.counter("served_total", help="served").inc(4)
        text = coordinator.render_text(
            extra=[({"shard": "0"}, worker.snapshot())])
        series = parse_prometheus_text(text)
        assert series["served_total"] == 10
        assert series['served_total{shard="0"}'] == 4

    def test_broken_collector_is_skipped(self):
        registry = MetricsRegistry()
        registry.counter("fine_total", help="fine").inc()
        registry.register_collector(lambda: (_ for _ in ()).throw(RuntimeError))
        assert "fine_total" in registry.snapshot()["families"]


# ---------------------------------------------------------------------- #
# span recorder
# ---------------------------------------------------------------------- #
def _spans(trace_id: str, count: int) -> list[Span]:
    return [Span(trace_id=trace_id, span_id=new_span_id(), name=f"s{i}")
            for i in range(count)]


class TestSpanRecorder:
    def test_whole_trace_eviction_keeps_span_bound(self):
        recorder = SpanRecorder(buffer_size=10)
        ids = [new_trace_id() for _ in range(6)]
        for trace_id in ids:
            recorder.record_many(_spans(trace_id, 3))
        stats = recorder.stats()
        assert stats["spans"] <= 10
        assert stats["evicted_traces"] >= 1
        assert recorder.tree(ids[0]) is None       # oldest evicted whole
        assert recorder.tree(ids[-1]) is not None  # newest survives

    def test_slowest_and_recent_views(self):
        recorder = SpanRecorder(buffer_size=100)
        durations = [0.03, 0.01, 0.02]
        ids = []
        for duration in durations:
            trace_id = new_trace_id()
            ids.append(trace_id)
            recorder.record_many(_spans(trace_id, 1))
            recorder.complete(trace_id, duration)
        assert [t["trace_id"] for t in recorder.recent(2)] == [ids[2], ids[1]]
        assert [t["trace_id"] for t in recorder.slowest(2)] == [ids[0], ids[2]]

    def test_slow_query_exemplar_keeps_tree_and_scatter(self):
        recorder = SpanRecorder(buffer_size=100, slow_threshold_seconds=0.01,
                                max_exemplars=2)
        fast = new_trace_id()
        recorder.record_many(_spans(fast, 1))
        recorder.complete(fast, 0.001)
        assert recorder.exemplars() == []
        slow = new_trace_id()
        recorder.record_many(_spans(slow, 2))
        recorder.complete(slow, 0.5, scatter={"targets": [0, 1]})
        exemplars = recorder.exemplars()
        assert len(exemplars) == 1
        assert exemplars[0]["trace_id"] == slow
        assert exemplars[0]["scatter"] == {"targets": [0, 1]}
        assert exemplars[0]["tree"]["num_spans"] == 2

    def test_build_tree_parents_and_orphans(self):
        trace_id = new_trace_id()
        root = Span(trace_id=trace_id, span_id="r" * 16, name="root")
        child = Span(trace_id=trace_id, span_id="c" * 16, name="child",
                     parent_span_id="r" * 16)
        orphan = Span(trace_id=trace_id, span_id="o" * 16, name="orphan",
                      parent_span_id="missing")
        tree = build_tree([root, child, orphan])
        roots = {span["name"] for span in tree["roots"]}
        assert roots == {"root", "orphan"}  # unknown parent → treated as root
        root_node = next(s for s in tree["roots"] if s["name"] == "root")
        assert [c["name"] for c in root_node["children"]] == ["child"]


# ---------------------------------------------------------------------- #
# envelope propagation
# ---------------------------------------------------------------------- #
class TestTraceEnvelopes:
    def test_round_trip_preserves_context(self, dataset):
        context = TraceContext(trace_id=new_trace_id(), span_id=new_span_id())
        request = QueryRequest(graph=dataset[0].copy(), trace=context)
        wire = request.to_wire()
        assert wire["trace"] == {"trace_id": context.trace_id,
                                 "span_id": context.span_id, "sampled": True}
        assert parse_request(wire).trace == context

    def test_to_query_stamps_and_from_query_lifts_the_carrier(self, dataset):
        context = TraceContext(trace_id=new_trace_id(), span_id=new_span_id())
        request = QueryRequest(graph=dataset[0].copy(), trace=context)
        query = request.to_query()
        assert query.metadata[TRACE_KEY]["span_id"] == context.span_id
        lifted = QueryRequest.from_query(query)
        assert lifted.trace == context
        # the carrier never leaks back into wire metadata
        assert TRACE_KEY not in lifted.to_wire()["query"]["metadata"]

    @pytest.mark.parametrize("flag", ["false", "true", 0, 1, None, [True]])
    def test_a_sampled_flag_that_is_not_a_boolean_reads_as_no_context(self, flag):
        wire = {"trace_id": new_trace_id(), "span_id": new_span_id(), "sampled": flag}
        assert TraceContext.from_wire(wire) is None


# ---------------------------------------------------------------------- #
# served tracing (thread shards)
# ---------------------------------------------------------------------- #
def _query(dataset, seed=3):
    return random_connected_subgraph(dataset[0], 5, rng=seed)


#: Planned onto both shards under short-circuit scatter.
BOTH_SHARDS = 4

STAGES = ["probe", "filter", "prune", "verify", "assemble", "admit"]

#: The attribute keys of every span of a sampled, sharded, served query.
SPAN_KEYS = {
    "client.request": {"request_id"},
    "server.request": {"outcome"},
    "server.queue": set(),
    "server.batch": {"batch_size"},
    "plan": set(),
    "scatter": {"targets", "skipped"},
    "merge": set(),
    "pipeline": {"shard"},
    **{stage: {"shard"} for stage in STAGES},
    "probe": {"shard", "tests"},
    "verify": {"shard", "tests", "matches"},
}


def assert_pinned_tree(tree: dict, spans: list[Span]) -> None:
    """The exact span tree of one query sampled by its client and served on
    two shards under short-circuit scatter."""
    assert [root["name"] for root in tree["roots"]] == ["client.request"]
    (server_span,) = tree["roots"][0]["children"]
    assert server_span["name"] == "server.request"
    assert [child["name"] for child in server_span["children"]] == [
        "server.queue", "server.batch", "plan", "scatter", "merge"]
    scatter = server_span["children"][3]
    assert [child["name"] for child in scatter["children"]] == ["pipeline", "pipeline"]
    assert {p["attributes"]["shard"] for p in scatter["children"]} == {0, 1}
    for pipeline in scatter["children"]:
        # the stages, in the order the pipeline laid them out, are leaves
        assert [span.name for span in spans
                if span.parent_span_id == pipeline["span_id"]] == STAGES
        assert all(not stage["children"] for stage in pipeline["children"])
    assert tree["num_spans"] == len(spans) == 7 + 2 * (1 + len(STAGES))
    assert {span.name: set(span.attributes) for span in spans} == SPAN_KEYS


class TestServedTracing:
    def test_sampled_query_yields_one_coherent_tree(self, dataset):
        get_recorder().reset()
        cfg = config(num_shards=2, scatter_mode="short-circuit", trace_sample_rate=1.0)
        with QueryServer(dataset, cfg) as server:
            client = RemoteGraphService.for_server(server, trace_sample_rate=1.0)
            response = client.run(_query(dataset, BOTH_SHARDS))
            assert response.trace_id
            tree = client.debug_traces(trace_id=response.trace_id)["trace"]
            spans = server.span_recorder.spans(response.trace_id)
        # the client span roots the tree; the server chain hangs beneath it
        assert_pinned_tree(tree, spans)

        # one process, one clock anchor: no span starts before its parent
        def check_starts(node):
            for child in node["children"]:
                assert child["start"] >= node["start"], (child["name"], node["name"])
                check_starts(child)

        check_starts(tree["roots"][0])

    def test_a_failed_shard_closes_its_trace(self, dataset):
        get_recorder().reset()
        context = TraceContext(trace_id=new_trace_id(), span_id=new_span_id())
        query = Query(graph=_query(dataset), metadata={TRACE_KEY: context.to_carrier()})

        def broken_filter(*args, **kwargs):
            raise RuntimeError("shard 1 cannot filter")

        with ShardedGraphCacheSystem(dataset, config(num_shards=2)) as system:
            system.shards[1].method.filter_candidates = broken_filter
            with pytest.raises(RuntimeError):
                system.run_query(query)
        # the caller's carrier is back, and the scatter span was recorded
        assert query.metadata[TRACE_KEY] == context.to_carrier()
        spans = get_recorder().spans(context.trace_id)
        (scatter,) = [span for span in spans if span.name == "scatter"]
        assert scatter.parent_span_id == context.span_id
        assert scatter.attributes["outcome"] == "error"
        (pipeline,) = [span for span in spans if span.name == "pipeline"]
        assert pipeline.parent_span_id == scatter.span_id
        assert [root["name"] for root in build_tree(spans)["roots"]] == ["scatter"]

    def test_a_malformed_sampled_flag_traces_nothing(self, dataset):
        get_recorder().reset()
        payload = QueryRequest(graph=_query(dataset)).to_wire()
        payload["trace"] = {"trace_id": new_trace_id(), "span_id": new_span_id(),
                            "sampled": "false"}
        with QueryServer(dataset, config(trace_sample_rate=0.0)) as server:
            status, body = server.serve_query(payload)
            assert status == 200 and body.get("trace") is None
            assert server.span_recorder.stats()["spans"] == 0

    def test_untracing_client_gets_a_server_originated_trace(self, dataset):
        get_recorder().reset()
        cfg = config(trace_sample_rate=1.0)
        with QueryServer(dataset, cfg) as server:
            client = RemoteGraphService.for_server(server)  # samples nothing
            status, payload = client.send(_query(dataset))
            assert status == 200
            recent = server.span_recorder.recent(1)
        assert len(recent) == 1  # the server traced it on its own
        assert payload["trace"] == {"trace_id": recent[0]["trace_id"]}
        root = recent[0]["roots"][0]
        assert root["name"] == "server.request"
        assert root["parent_span_id"] is None  # server-originated: a true root

    def test_unsampled_serving_records_nothing(self, dataset):
        get_recorder().reset()
        with QueryServer(dataset, config(trace_sample_rate=0.0)) as server:
            client = RemoteGraphService.for_server(server)
            response = client.run(_query(dataset))
            assert response.trace_id is None
            assert server.span_recorder.recent(5) == []

    def test_tracing_changes_zero_answers(self, dataset, trace_queries):
        """Differential arm: sampling at 1.0 vs 0.0 is answer-invariant."""
        answers = {}
        for rate in (0.0, 1.0):
            get_recorder().reset()
            cfg = config(num_shards=2, trace_sample_rate=rate)
            with QueryServer(dataset, cfg) as server:
                client = RemoteGraphService.for_server(server)
                answers[rate] = [
                    client.run(QueryRequest(graph=q.graph.copy(),
                                            query_type=q.query_type)).answer
                    for q in trace_queries
                ]
        assert answers[0.0] == answers[1.0]

    def test_slow_query_exemplar_via_http(self, dataset):
        get_recorder().reset()
        cfg = config(num_shards=2, trace_sample_rate=1.0,
                     slow_query_threshold_s=1e-6)
        with QueryServer(dataset, cfg) as server:
            client = RemoteGraphService.for_server(server)
            client.run(_query(dataset))
            payload = client.debug_traces(sort="slowest", count=3)
        assert payload["traces"], "completed trace missing from slowest view"
        assert payload["exemplars"], "threshold breach kept no exemplar"
        exemplar = payload["exemplars"][0]
        assert exemplar["tree"]["num_spans"] >= 1
        assert exemplar["scatter"] is not None  # the scatter plan rides along

    def test_unknown_trace_id_is_a_404(self, dataset):
        with QueryServer(dataset, config()) as server:
            client = RemoteGraphService.for_server(server)
            with pytest.raises(ServerError):
                client.debug_traces(trace_id="deadbeef")


# ---------------------------------------------------------------------- #
# process-worker hop (the acceptance criterion)
# ---------------------------------------------------------------------- #
class TestProcessWorkerTracing:
    def test_worker_spans_parent_link_across_the_process_hop(self, dataset):
        """A query served via ``shard_backend="process"`` at two shards must
        produce ONE span tree whose worker-side pipeline-stage spans are
        parent-linked (via each worker's ``pipeline`` span) to the
        coordinator's ``scatter`` span — the trace context survives the
        loopback HTTP hop and the spans ship back inside the wire report."""
        get_recorder().reset()
        cfg = config(num_shards=2, shard_backend="process",
                     scatter_mode="short-circuit", trace_sample_rate=1.0)
        with QueryServer(dataset, cfg) as server:
            client = RemoteGraphService.for_server(server, trace_sample_rate=1.0)
            response = client.run(_query(dataset, BOTH_SHARDS))
            assert response.trace_id
            spans = server.span_recorder.spans(response.trace_id)
            tree = client.debug_traces(trace_id=response.trace_id)["trace"]
            health = client.health()
            text = client.metrics_text()
        assert_pinned_tree(tree, spans)
        scatter = [s for s in spans if s.name == "scatter"]
        assert len(scatter) == 1
        pipelines = [s for s in spans if s.name == "pipeline"]
        assert {p.attributes.get("shard") for p in pipelines} == {0, 1}
        assert all(p.parent_span_id == scatter[0].span_id for p in pipelines)
        pipeline_ids = {p.span_id for p in pipelines}
        stages = [s for s in spans if s.name in ("filter", "probe", "prune",
                                                 "verify", "assemble", "admit")]
        assert stages and all(s.parent_span_id in pipeline_ids for s in stages)
        assert all(s.trace_id == response.trace_id for s in spans)
        assert tree["num_spans"] == len(spans)
        # enriched health: per-worker liveness + respawn budget
        assert health["status"] == "ok"
        assert all(w["backend"] == "process" and w["alive"]
                   and w["respawns"] == 0 for w in health["workers"])
        # worker registries fan into the text exposition as shard series
        series = parse_prometheus_text(text)
        assert series['worker_requests_total{shard="0"}'] >= 1
        assert series['worker_requests_total{shard="1"}'] >= 1


class TestStageSpanCounts:
    def test_probe_and_verify_spans_carry_the_reports_counts(self, dataset, trace_queries):
        reports = []
        with GraphCacheSystem(dataset, config()) as system:
            for query in [*trace_queries, *trace_queries]:
                context = TraceContext(trace_id=new_trace_id(), span_id=new_span_id())
                reports.append(system.run_query(Query(
                    graph=query.graph, query_type=query.query_type,
                    metadata={TRACE_KEY: context.to_carrier()})))
        for report in reports:
            spans = {span.name: span for span in report.spans}
            assert spans["probe"].attributes == {"tests": report.probe_tests}
            assert spans["verify"].attributes == {
                "tests": report.dataset_tests, "matches": len(report.verified_answers)}
        # the replayed half probes a warm cache, and some verification matches
        assert sum(report.probe_tests for report in reports) > 0
        assert sum(len(report.verified_answers) for report in reports) > 0


# ---------------------------------------------------------------------- #
# unified metrics + health surfaces
# ---------------------------------------------------------------------- #
class TestUnifiedTelemetry:
    def test_text_metrics_parse_and_agree_with_json(self, dataset):
        cfg = config(num_shards=2, scatter_mode="short-circuit")
        with QueryServer(dataset, cfg) as server:
            client = RemoteGraphService.for_server(server)
            for seed in (3, 4, 5):
                client.run(_query(dataset, seed))
            series = parse_prometheus_text(client.metrics_text())
            snapshot = client.metrics()
        queries = snapshot.aggregate["num_queries"]
        assert series["gc_queries_total"] == queries
        assert series['gc_server_requests_total{outcome="ok"}'] == 3
        assert series["gc_scatter_queries_total"] == queries
        assert series["gc_server_request_seconds_count"] == 3
        assert series["gc_server_uptime_seconds"] > 0
        assert series['gc_worker_alive{shard="0"}'] == 1
        assert series['gc_worker_alive{shard="1"}'] == 1

    def test_health_carries_worker_liveness(self, dataset):
        with QueryServer(dataset, config(num_shards=2)) as server:
            client = RemoteGraphService.for_server(server)
            health = client.health()
        assert health["status"] == "ok"  # the probe contract, unchanged
        assert [w["shard"] for w in health["workers"]] == [0, 1]
        assert all(w["alive"] and w["respawns"] == 0 for w in health["workers"])

    def test_unsharded_health_stays_minimal(self, dataset):
        with QueryServer(dataset, config()) as server:
            health = RemoteGraphService.for_server(server).health()
        assert health["status"] == "ok"
        assert "workers" not in health


# ---------------------------------------------------------------------- #
# structured logs
# ---------------------------------------------------------------------- #
class TestStructuredLogs:
    def test_buffered_handler_bounds_and_drains(self):
        handler = BufferedLogHandler(capacity=2)
        source = logging.getLogger("repro.test.buffered")
        source.addHandler(handler)
        try:
            source.warning("w1")
            source.error("e1")
            source.warning("w2")  # overflows: w1 is dropped, counted
        finally:
            source.removeHandler(handler)
        drained = handler.drain()
        assert drained["dropped"] == 1
        assert [e["message"] for e in drained["entries"]] == ["e1", "w2"]
        assert drained["entries"][0]["level"] == "ERROR"
        assert handler.drain() == {"entries": [], "dropped": 0}

    def test_replay_attributes_the_source_shard(self, caplog):
        entries = [{"level": "WARNING", "logger": "repro.sharding.worker",
                    "message": "cache pressure", "trace_id": "abc123"}]
        with caplog.at_level(logging.WARNING, logger="repro"):
            replay_entries(entries, "shard1", dropped=2)
        messages = [record.getMessage() for record in caplog.records]
        assert any("shard1" in m and "cache pressure" in m for m in messages)
        assert any("2" in m and "dropped" in m for m in messages)

    def test_get_logger_roots_under_repro(self):
        assert get_logger("server").name == "repro.server"
        assert get_logger("repro.obs").name == "repro.obs"


# ---------------------------------------------------------------------- #
# CLI
# ---------------------------------------------------------------------- #
class TestTraceCLI:
    def test_trace_command_prints_span_trees(self, dataset, capsys):
        get_recorder().reset()
        cfg = config(num_shards=2, trace_sample_rate=1.0)
        with QueryServer(dataset, cfg) as server:
            client = RemoteGraphService.for_server(server)
            response = client.run(_query(dataset))
            from repro.cli import main

            assert main(["trace", "--port", str(server.port)]) == 0
            listing = capsys.readouterr().out
            assert "server.request" in listing and "pipeline" in listing
            assert main(["trace", "--port", str(server.port),
                         "--trace-id", response.trace_id]) == 0
            single = capsys.readouterr().out
            assert response.trace_id in single

    def test_trace_command_reports_empty_recorder(self, dataset, capsys):
        get_recorder().reset()
        with QueryServer(dataset, config()) as server:
            from repro.cli import main

            assert main(["trace", "--port", str(server.port)]) == 1
            assert "no traces" in capsys.readouterr().out
