"""Metric definitions: the end-to-end numbers and the per-layer numbers.

``END_TO_END`` and ``PER_LAYER`` are the single list of names, units and
directions; ``BENCHMARK.json`` repeats them (the smoke test keeps the two in
step).  Everything here is arithmetic over what a run recorded — operation
records, ``/proc`` readings, public accessor snapshots and, for the per-layer
numbers, the spans of the traced repetition.

Every time is reported in **reference seconds** (:mod:`gcbench.speed`: the
host's speed drifts by tens of percent for minutes at a time, and a reference
kernel the client times between operations tracks it).  An untraced run
repeats its timed phase ``REPS`` times on freshly built systems with identical
inputs; each metric is computed **per repetition** as the issue defines it
(``qps`` = correct operations / timed wall seconds, latency percentiles over
that repetition's operations) and reported as the **median of the
repetitions**.  Every repetition's raw (unconverted) values are printed above
the table with the conversion factor applied, ``machine_speed``.
"""

from __future__ import annotations

import json
import math
import statistics
import time
from dataclasses import dataclass, field
from functools import cached_property

from repro.api import QueryResponse, as_request, parse_request

from gcbench import tracer
from gcbench.workloads import LATENCY_LIMIT_MS

#: (name, unit, better, bound) — bound: share of the parent's median by which
#: the metric may worsen before a change is rejected (evidence: README).
END_TO_END = [
    ("setup_s", "s", "lower", 0.25),
    ("qps", "1/s", "higher", 0.15),
    ("latency_p50_ms", "ms", "lower", 0.15),
    ("latency_p95_ms", "ms", "lower", 0.25),
    ("tests_per_query", "count", "lower", 0.02),
    ("cpu_s_per_kq", "s", "lower", 0.15),
    ("peak_rss_mb", "MB", "lower", 0.10),
]

#: (name, unit, better).  A layer that is not on a workload's path reports 0
#: (the contract wants every name on every workload) and prints as "absent".
PER_LAYER = [
    ("index.build_s", "s", "lower"),
    ("index.filter_s", "s", "lower"),
    ("index.candidates_per_query", "count", "lower"),
    ("index.precision", "ratio", "higher"),
    ("index.memory_mb", "MB", "lower"),
    ("isomorphism.tests", "count", "lower"),
    ("isomorphism.busy_s", "s", "lower"),
    ("isomorphism.us_per_test", "us", "lower"),
    ("isomorphism.match_ratio", "ratio", "higher"),
    ("methods.verify_s", "s", "lower"),
    ("methods.verify_self_s", "s", "lower"),
    ("cache.lookup_s", "s", "lower"),
    ("cache.probe_tests_per_query", "count", "lower"),
    ("cache.probe_useful_ratio", "ratio", "higher"),
    ("cache.hit_ratio", "ratio", "higher"),
    ("cache.exact_hit_ratio", "ratio", "higher"),
    ("cache.tests_saved_share", "ratio", "higher"),
    ("cache.admit_s", "s", "lower"),
    ("cache.admissions", "count", "lower"),
    ("cache.evictions", "count", "lower"),
    ("cache.entries", "count", "higher"),
    ("cache.memory_mb", "MB", "lower"),
    ("runtime.pipeline_s", "s", "lower"),
    ("runtime.self_s", "s", "lower"),
    ("runtime.prune_s", "s", "lower"),
    ("runtime.assemble_s", "s", "lower"),
    ("sharding.plan_s", "s", "lower"),
    ("sharding.mean_fanout", "count", "lower"),
    ("sharding.skip_rate", "ratio", "higher"),
    ("sharding.summary_fallbacks", "count", "lower"),
    ("sharding.scatter_self_s", "s", "lower"),
    ("sharding.transport_ms_p50", "ms", "lower"),
    ("sharding.merge_s", "s", "lower"),
    ("sharding.shard_busy_skew", "ratio", "lower"),
    ("sharding.worker_spawn_s", "s", "lower"),
    ("sharding.respawns", "count", "lower"),
    ("sharding.hedges", "count", "lower"),
    ("api.codec_us_per_request", "us", "lower"),
    ("api.request_bytes_p50", "bytes", "lower"),
    ("api.response_bytes_p50", "bytes", "lower"),
    ("api.http_floor_ms", "ms", "lower"),
    ("server.queue_wait_ms_p50", "ms", "lower"),
    ("server.queue_wait_ms_p95", "ms", "lower"),
    ("server.mean_batch_size", "count", "higher"),
    ("server.batches", "count", "lower"),
    ("server.rejected", "count", "lower"),
    ("server.shed", "count", "lower"),
    ("server.overhead_ms_p50", "ms", "lower"),
    ("server.busy_cpu_share", "ratio", "lower"),
    ("client.latency_p99_ms", "ms", "lower"),
    ("client.lateness_ms_p95", "ms", "lower"),
    ("client.slo_miss_share", "ratio", "lower"),
    ("client.offered_rps", "1/s", "higher"),
    ("obs.bench_trace_overhead_share", "ratio", "lower"),
]

#: Per-layer times measured while the system was being built.
_SETUP_TIMES = ("index.build_s", "sharding.worker_spawn_s")

#: Layers that exist only on some workloads; elsewhere their metrics are 0.
_SHARDED_ONLY = "sharding."
_SERVED_ONLY = ("server.", "api.http_floor_ms")

#: What process shard workers neither ship back in their wire report nor
#: expose over ``/describe`` / ``/metrics``: how long the index build took,
#: time in the pipeline outside its stages, and the cache's admission and
#: eviction counts.  The benchmark cannot wrap a worker, so these are absent
#: on ``sharded_process`` rather than a measured zero.
_UNSEEN_IN_WORKERS = ("index.build_s", "methods.verify_self_s", "runtime.self_s",
                      "cache.admissions", "cache.evictions")


def absent(spec, name: str) -> bool:
    """True when ``name`` is not observable on ``spec`` (it then reports 0)."""
    if name.startswith(_SHARDED_ONLY):
        return spec.system != "sharded"
    if name.startswith(_SERVED_ONLY):
        return spec.system != "served"
    return spec.system == "sharded" and name in _UNSEEN_IN_WORKERS


@dataclass
class Rep:
    """Everything one repetition recorded, raw, and its reference-second views."""

    ops: list
    attempted: int
    started_s: float
    ended_s: float
    #: Cold construction to first answer, already in reference seconds.
    setup_s: float
    #: CPU seconds of every engine-hosting process over the timed phase
    #: (raw; the client's own kernel timing already taken out).
    cpu_s: float
    peak_rss_mb: float
    #: Reference-kernel samples taken alongside (:class:`gcbench.speed.SpeedLog`).
    speed: object = None
    #: Reference seconds per measured second while the system was built.
    setup_speed: float = 1.0
    #: Seconds a closed loop's single client spent timing the kernel between
    #: operations: part of the measured wall, not of the system's work.
    sampling_s: float = 0.0
    warmup_failures: int = 0
    counters_before: dict = field(default_factory=dict)
    counters_after: dict = field(default_factory=dict)
    spans: list = field(default_factory=list)
    http_floor_ms: float = 0.0
    #: The first answer this system ever gave (closes ``setup_s``).
    first_answer: frozenset | None = None

    @cached_property
    def ok_ops(self) -> list:
        return [op for op in self.ops if op.error is None]

    @property
    def failures(self) -> int:
        """Operations that failed, were refused or were never issued."""
        return self.warmup_failures + self.attempted - len(self.ok_ops)

    @property
    def wall_s(self) -> float:
        """Raw timed wall seconds, without the client's kernel timing."""
        return self.ended_s - self.started_s - self.sampling_s

    @property
    def raw_qps(self) -> float:
        return _ratio(len(self.ok_ops), self.wall_s)

    def reference_latency_s(self, op) -> float:
        """An operation's latency in reference seconds.

        Only compute time is converted.  What a served request spent in the
        batcher's queue (``queue_seconds`` on its response) is mostly the
        5 ms coalescing timer — wall-clock by definition — and is carried
        over unconverted; scaling it made ``latency_p50_ms`` follow the
        machine's speed instead of cancelling it.
        """
        waited = min(op.latency_s, getattr(op.response, "queue_seconds", None) or 0.0)
        return waited + (op.latency_s - waited) * self.speed.factor(op.sent_s, op.done_s)

    @cached_property
    def reference_latencies_s(self) -> list[float]:
        return [self.reference_latency_s(op) for op in self.ok_ops]

    @cached_property
    def machine_speed(self) -> float:
        """Reference seconds per measured second, weighted by operation time."""
        return _ratio(sum(self.reference_latencies_s),
                      sum(op.latency_s for op in self.ok_ops)) or 1.0

    def qps(self, loop: str) -> float:
        """Correct operations per timed wall second.

        Reference seconds in a closed loop, where the system sets the pace;
        an open loop's rate is set by the schedule, so it stays as achieved.
        """
        return self.raw_qps / (self.machine_speed if loop == "closed" else 1.0)

    def latency_ms(self, share: float) -> float:
        return percentile(self.reference_latencies_s, share) * 1e3

    @property
    def tests_per_query(self) -> float:
        ok = self.ok_ops
        return _ratio(sum(op.response.tests["dataset"] for op in ok), len(ok))

    @property
    def cpu_s_per_kq(self) -> float:
        return _ratio(self.cpu_s * self.machine_speed, len(self.ok_ops) / 1000.0)

    def answers(self) -> list:
        """Answer set per trace position (``None`` where the op failed)."""
        answers: list = [None] * self.attempted
        for op in self.ok_ops:
            answers[op.index] = op.response.answer
        return answers


def percentile(values: list[float], share: float) -> float:
    """Nearest-rank percentile (0 for an empty sample)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(0, math.ceil(share * len(ordered)) - 1)]


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def end_to_end(spec, reps: list[Rep], setup_samples: list[float]) -> dict[str, float]:
    """The seven end-to-end metrics of one run (see module docstring)."""
    median = statistics.median
    return {
        "setup_s": median(setup_samples),
        "qps": median(rep.qps(spec.loop) for rep in reps),
        "latency_p50_ms": median(rep.latency_ms(0.50) for rep in reps),
        "latency_p95_ms": median(rep.latency_ms(0.95) for rep in reps),
        "tests_per_query": median(rep.tests_per_query for rep in reps),
        "cpu_s_per_kq": median(rep.cpu_s_per_kq for rep in reps),
        "peak_rss_mb": max(rep.peak_rss_mb for rep in reps),
    }


def codec_cost(queries: list, responses: list) -> tuple[float, float, float]:
    """Encode + decode of real payloads through the public envelope functions.

    Returns (µs per request/response pair, median request bytes, median
    response bytes): what one hop over the wire costs before any transport.
    """
    request_sizes, response_sizes = [], []
    begun = time.perf_counter()
    for query, response in zip(queries, responses):
        body = json.dumps(as_request(query).to_wire()).encode("utf-8")
        parse_request(json.loads(body))
        reply = json.dumps(response.to_wire()).encode("utf-8")
        QueryResponse.from_wire(json.loads(reply))
        request_sizes.append(len(body))
        response_sizes.append(len(reply))
    elapsed = time.perf_counter() - begun
    return (_ratio(elapsed * 1e6, len(request_sizes)),
            percentile(request_sizes, 0.5), percentile(response_sizes, 0.5))


class SpanSums:
    """Totals over the spans of the timed operations (and of set-up)."""

    def __init__(self, spans: list) -> None:
        self.timed = [span for span in spans if isinstance(span.trace_id, int)]
        self.setup = [span for span in spans if span.trace_id == "setup"]
        self._self_s = tracer.self_seconds(self.timed)
        self._by_name: dict[str, list] = {}
        for span in self.timed:
            self._by_name.setdefault(span.name, []).append(span)

    def named(self, *names: str) -> list:
        return [span for name in names for span in self._by_name.get(name, ())]

    def total(self, *names: str) -> float:
        return sum(span.duration_s for span in self.named(*names))

    def self_total(self, *names: str) -> float:
        return sum(self._self_s[span.span_id] for span in self.named(*names))

    def attr(self, key: str, *names: str) -> float:
        spans = self.named(*names) if names else self.timed
        return sum(span.attrs.get(key, 0) for span in spans)

    def setup_total(self, name: str) -> float:
        return sum(span.duration_s for span in self.setup if span.name == name)


def _sharding(sums: SpanSums, counters: dict) -> dict[str, float]:
    calls = sums.named("sharding.shard_call")
    by_parent: dict = {}
    busy: dict = {}
    for call in calls:
        by_parent.setdefault(call.parent_id, []).append(call.duration_s)
        shard = call.attrs.get("shard")
        busy[shard] = busy.get(shard, 0.0) + call.attrs.get("worker_s", 0.0)
    queries = sums.named("sharding.run_query")
    scatter = counters.get("scatter", {})
    return {
        "sharding.plan_s": sums.total("sharding.plan"),
        "sharding.mean_fanout": scatter.get("mean_fanout", 0.0),
        "sharding.skip_rate": scatter.get("skip_rate", 0.0),
        "sharding.summary_fallbacks": scatter.get("summary_fallbacks", 0),
        "sharding.scatter_self_s": sum(
            span.duration_s - max(by_parent.get(span.span_id, [0.0])) for span in queries
        ),
        "sharding.transport_ms_p50": percentile(
            [call.duration_s - call.attrs.get("worker_s", 0.0) for call in calls], 0.5
        ) * 1e3,
        "sharding.merge_s": sum(span.attrs.get("merge_s", 0.0) for span in queries),
        "sharding.shard_busy_skew": _ratio(
            max(busy.values(), default=0.0), _ratio(sum(busy.values()), len(busy))
        ),
        "sharding.worker_spawn_s": sums.setup_total("sharding.worker_spawn"),
        "sharding.respawns": counters.get("respawns", 0),
        "sharding.hedges": counters.get("hedges", 0),
    }


def _server(rep: Rep, ok: list) -> dict[str, float]:
    before = rep.counters_before.get("batcher", {})
    after = rep.counters_after.get("batcher", {})

    def grown(key: str) -> float:
        return after.get(key, 0) - before.get(key, 0)

    waits = [op.response.queue_seconds or 0.0 for op in ok]
    overheads = [
        op.service_s - (op.response.queue_seconds or 0.0) - (op.response.total_seconds or 0.0)
        for op in ok
    ]
    return {
        "server.queue_wait_ms_p50": percentile(waits, 0.50) * 1e3,
        "server.queue_wait_ms_p95": percentile(waits, 0.95) * 1e3,
        "server.mean_batch_size": _ratio(grown("served") + grown("failed"), grown("batches")),
        "server.batches": grown("batches"),
        "server.rejected": grown("rejected"),
        "server.shed": grown("shed"),
        "server.overhead_ms_p50": percentile(overheads, 0.5) * 1e3,
        "server.busy_cpu_share": _ratio(rep.cpu_s, rep.wall_s),
        "api.http_floor_ms": rep.http_floor_ms,
    }


def per_layer(spec, rep: Rep, reference: Rep, queries: list) -> dict[str, float]:
    """Every per-layer metric from the traced repetition ``rep``.

    ``reference`` is the untraced repetition of the same inputs the tracing
    overhead is measured against; ``queries`` are the timed inputs.
    """
    ok = rep.ok_ops
    sums = SpanSums(rep.spans)
    counters = rep.counters_after
    responses = [op.response for op in ok]
    candidates = sum(r.tests["baseline"] for r in responses)
    dataset_tests = sum(r.tests["dataset"] for r in responses)
    probe_tests = sum(r.tests["probe"] for r in responses)
    semantic_hits = sum(r.hits["sub"] + r.hits["super"] for r in responses)
    hit_ops = sum(1 for r in responses if r.hits["exact"] or r.hits["sub"] or r.hits["super"])
    tests = sums.attr("tests")
    busy_s = sums.attr("busy_s")
    verify_s = sums.total("methods.verify")
    sample = ok[:300]
    codec_us, request_bytes, response_bytes = codec_cost(
        [queries[op.index] for op in sample], [op.response for op in sample]
    )
    latencies = [op.latency_s for op in ok]
    misses = sum(1 for value in latencies if value * 1e3 > LATENCY_LIMIT_MS)
    metrics = {
        "index.build_s": sums.setup_total("index.build"),
        "index.filter_s": sums.total("index.filter"),
        "index.candidates_per_query": _ratio(candidates, len(ok)),
        "index.precision": _ratio(sum(len(r.answer) for r in responses), candidates),
        "index.memory_mb": counters.get("index_memory_bytes", 0) / 2**20,
        "isomorphism.tests": tests,
        "isomorphism.busy_s": busy_s,
        "isomorphism.us_per_test": _ratio(busy_s * 1e6, tests),
        "isomorphism.match_ratio": _ratio(sums.attr("matches"), tests),
        "methods.verify_s": verify_s,
        "methods.verify_self_s": verify_s - sums.attr("busy_s", "methods.verify"),
        "cache.lookup_s": sums.total("cache.lookup"),
        "cache.probe_tests_per_query": _ratio(probe_tests, len(ok)),
        "cache.probe_useful_ratio": _ratio(semantic_hits, probe_tests),
        "cache.hit_ratio": _ratio(hit_ops, len(ok)),
        "cache.exact_hit_ratio": _ratio(sum(1 for r in responses if r.hits["exact"]), len(ok)),
        "cache.tests_saved_share": 1.0 - _ratio(dataset_tests, candidates),
        "cache.admit_s": sums.total("cache.credit", "cache.offer", "cache.admit",
                                    "cache.flush_window"),
        "cache.admissions": counters.get("cache_admissions", 0),
        "cache.evictions": counters.get("cache_evictions", 0),
        "cache.entries": counters.get("cache_entries", 0),
        "cache.memory_mb": counters.get("cache_memory_bytes", 0) / 2**20,
        "runtime.pipeline_s": sums.total("runtime.pipeline"),
        "runtime.self_s": sums.self_total("runtime.run_query", "runtime.pipeline"),
        "runtime.prune_s": sums.total("runtime.prune"),
        "runtime.assemble_s": sums.total("runtime.assemble"),
        "api.codec_us_per_request": codec_us,
        "api.request_bytes_p50": request_bytes,
        "api.response_bytes_p50": response_bytes,
        "client.latency_p99_ms": percentile(latencies, 0.99) * 1e3,
        "client.lateness_ms_p95": percentile([op.lateness_s for op in ok], 0.95) * 1e3,
        "client.slo_miss_share": _ratio(misses + rep.attempted - len(ok), rep.attempted),
        "client.offered_rps": (spec.ops_per_second if spec.loop == "open" else rep.raw_qps),
        # both sides in reference seconds whatever the loop: an open loop's
        # achieved rate would hide the overhead behind the schedule
        "obs.bench_trace_overhead_share": 1.0 - _ratio(
            rep.raw_qps / rep.machine_speed, reference.raw_qps / reference.machine_speed),
    }
    metrics.update(_sharding(sums, counters))
    metrics.update(_server(rep, ok))
    # times become reference seconds: one factor for the timed phase, the
    # set-up factor for what happened during construction
    for name, unit, _ in PER_LAYER:
        if absent(spec, name):
            metrics[name] = 0.0
        elif name in _SETUP_TIMES:
            metrics[name] *= rep.setup_speed
        elif unit in ("s", "ms", "us"):
            metrics[name] *= rep.machine_speed
    return {name: float(metrics[name]) for name, _, _ in PER_LAYER}


def stage_shares(spans: list) -> dict[str, float]:
    """Share of summed stage time per stage (the README's interaction table)."""
    sums = SpanSums(spans)
    stages = {
        "filter": sums.total("index.filter"),
        "probe": sums.total("cache.lookup"),
        "prune": sums.total("runtime.prune"),
        "verify": sums.total("methods.verify"),
        "assemble": sums.total("runtime.assemble"),
        "admit": sums.total("cache.credit", "cache.offer", "cache.admit"),
    }
    whole = sum(stages.values())
    return {stage: _ratio(seconds, whole) for stage, seconds in stages.items()}
