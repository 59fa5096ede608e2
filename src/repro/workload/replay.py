"""Trace-replay load generation for the query server.

:func:`replay_trace` replays a recorded trace (a :class:`Workload`, which
already JSON round-trips via ``save``/``load``) against a server through a
:class:`~repro.api.remote.RemoteGraphService` from ``num_threads`` concurrent
client threads, either *closed-loop* (send as fast as responses return) or
*open-loop* at a target QPS (each query has a fixed send deadline — queue
buildup then shows up as latency, the way real traffic behaves).  The result
records per-query status/latency so tail percentiles and rejection (429)
rates fall out directly; replies are read through the one envelope parser
(:func:`~repro.api.envelopes.parse_response`).  One thread holds one
keep-alive connection, so ``num_threads`` is also the number of connections
the replay holds open; a thousand is a tested operating point.

Trace *generation* reuses the workload generators: :func:`generate_trace`
maps the three canonical skews the paper's experiments vary — ``uniform``,
``zipfian``, ``drifting`` — onto :class:`WorkloadMix` settings, and can
interleave subgraph/supergraph semantics (``query_type="mixed"``).
Everything is deterministic under a fixed seed.
"""

from __future__ import annotations

import math
import random
import threading
import time
from dataclasses import dataclass, field

from repro.api.envelopes import ErrorEnvelope, as_request, parse_response
from repro.api.remote import RemoteGraphService
from repro.errors import WorkloadError
from repro.graph.graph import Graph
from repro.query_model import Query, QueryType
from repro.workload.generator import WorkloadGenerator, WorkloadMix
from repro.workload.workload import Workload

#: The skew names ``generate_trace`` accepts, mapped to mix settings.
TRACE_SKEWS = ("uniform", "zipfian", "drifting")


def parse_priority_mix(spec: str) -> list[tuple[int, float]]:
    """Parse ``"0:0.8,10:0.2"`` into ``[(priority, weight), ...]``.

    The CLI's ``--priority-mix`` format: comma-separated ``priority:weight``
    pairs.  Weights need not sum to 1 — they are relative.
    """
    mix: list[tuple[int, float]] = []
    for part in spec.split(","):
        part = part.strip()
        if not part:
            continue
        priority_text, _, weight_text = part.partition(":")
        try:
            priority = int(priority_text)
            weight = float(weight_text) if weight_text else 1.0
        except ValueError:
            raise WorkloadError(
                f"malformed priority mix entry {part!r}; "
                "expected 'priority:weight' pairs like '0:0.8,10:0.2'"
            ) from None
        if weight <= 0:
            raise WorkloadError(f"priority mix weight must be positive: {part!r}")
        mix.append((priority, weight))
    if not mix:
        raise WorkloadError(f"empty priority mix {spec!r}")
    return mix


def with_serving_fields(
    queries: list,
    deadline_seconds: float | None = None,
    priority_mix: str | list[tuple[int, float]] | None = None,
    seed: int = 2018,
) -> list:
    """Stamp deadline/priority onto a trace's queries as request envelopes.

    With neither knob set the queries pass through untouched.  A priority
    mix draws each query's band from the weighted choices deterministically
    under ``seed``, so two replays of the same trace (e.g. a deadline arm
    and its no-deadline reference) agree on which query got which priority.
    """
    if deadline_seconds is None and not priority_mix:
        return list(queries)
    priorities = None
    if priority_mix:
        mix = (parse_priority_mix(priority_mix)
               if isinstance(priority_mix, str) else list(priority_mix))
        rng = random.Random(seed)
        priorities = rng.choices(
            [priority for priority, _ in mix],
            weights=[weight for _, weight in mix],
            k=len(queries),
        )
    requests = []
    for index, query in enumerate(queries):
        request = as_request(query)
        if deadline_seconds is not None:
            request.deadline_seconds = deadline_seconds
        if priorities is not None:
            request.priority = priorities[index]
        requests.append(request)
    return requests


# ---------------------------------------------------------------------- #
# trace replay
# ---------------------------------------------------------------------- #
@dataclass
class ReplayEvent:
    """Outcome of one replayed query."""

    index: int
    status: int
    latency_seconds: float
    answer: frozenset | None = None
    batch_size: int | None = None
    queue_seconds: float | None = None
    error: str | None = None
    #: Priority band the replayed request carried (None when unset).
    priority: int | None = None

    @classmethod
    def observed(cls, index: int, query, latency_seconds: float,
                 outcome) -> "ReplayEvent":
        """The event for one ``send``: its ``(status, payload)`` or what it raised.

        An exception, or a reply that is no envelope, is a transport failure
        rather than a server verdict: status -1.
        """
        priority = getattr(query, "priority", None)
        try:
            if isinstance(outcome, BaseException):
                raise outcome
            status, payload = outcome
            reply = parse_response(payload)
        except Exception as exc:
            return cls(index=index, status=-1, latency_seconds=latency_seconds,
                       error=f"{type(exc).__name__}: {exc}", priority=priority)
        if isinstance(reply, ErrorEnvelope):
            return cls(index=index, status=status, latency_seconds=latency_seconds,
                       error=reply.message, priority=priority)
        return cls(index=index, status=status, latency_seconds=latency_seconds,
                   answer=reply.answer, batch_size=reply.batch_size,
                   queue_seconds=reply.queue_seconds, priority=priority)


@dataclass
class ReplayResult:
    """Everything one trace replay observed, in trace order."""

    trace_name: str
    events: list[ReplayEvent] = field(default_factory=list)
    elapsed_seconds: float = 0.0
    target_qps: float | None = None
    num_threads: int = 1

    @property
    def served(self) -> int:
        return sum(1 for event in self.events if event.status == 200)

    @property
    def rejected(self) -> int:
        return sum(1 for event in self.events if event.status == 429)

    @property
    def timeouts(self) -> int:
        """Requests answered 504: request timeout or deadline shed."""
        return sum(1 for event in self.events if event.status == 504)

    @property
    def errors(self) -> int:
        return sum(1 for e in self.events if e.status not in (200, 429, 504))

    @property
    def achieved_qps(self) -> float:
        if self.elapsed_seconds <= 0:
            return 0.0
        return self.served / self.elapsed_seconds

    def answers(self) -> list[frozenset | None]:
        """Answer set per trace position (``None`` for non-200 responses)."""
        return [event.answer for event in self.events]

    def latency_percentiles(self, percentiles: tuple[int, ...] = (50, 95, 99)) -> dict[str, float]:
        """Nearest-rank latency percentiles (seconds) over served queries.

        Nearest-rank: the p-th percentile of n samples is the value at sorted
        rank ``ceil(p/100 * n)`` (1-based), so p50 of [1, 2, 3, 4] is 2.
        """
        latencies = sorted(
            event.latency_seconds for event in self.events if event.status == 200
        )
        if not latencies:
            return {f"p{p}": 0.0 for p in percentiles}
        return {
            f"p{p}": latencies[
                min(len(latencies), max(1, math.ceil(len(latencies) * p / 100))) - 1
            ]
            for p in percentiles
        }

    def summary(self) -> dict[str, object]:
        """One-row summary for tables and BENCH reports."""
        tails = self.latency_percentiles()
        return {
            "trace": self.trace_name,
            "queries": len(self.events),
            "served": self.served,
            "rejected": self.rejected,
            "timeouts": self.timeouts,
            "errors": self.errors,
            "elapsed_seconds": round(self.elapsed_seconds, 4),
            "achieved_qps": round(self.achieved_qps, 1),
            "target_qps": self.target_qps,
            "num_threads": self.num_threads,
            "p50_ms": round(tails["p50"] * 1000.0, 3),
            "p95_ms": round(tails["p95"] * 1000.0, 3),
            "p99_ms": round(tails["p99"] * 1000.0, 3),
        }


def replay_trace(
    client: RemoteGraphService,
    trace: Workload,
    target_qps: float | None = None,
    num_threads: int = 4,
    deadline_seconds: float | None = None,
    priority_mix: str | list[tuple[int, float]] | None = None,
) -> ReplayResult:
    """Replay ``trace`` against the server from concurrent client threads.

    ``client`` is a :class:`~repro.api.remote.RemoteGraphService` (anything
    with its ``send``/``close`` transport surface).

    ``target_qps=None`` runs closed-loop (each thread sends its next query as
    soon as the previous answer returns); a positive value runs open-loop:
    query *i* is released at ``i / target_qps`` seconds after the start, so a
    server slower than the offered load accumulates queue delay (and 429s)
    instead of silently throttling the generator.

    ``deadline_seconds`` stamps a per-query deadline on every request (the
    server sheds work it cannot start in time: 504 lines show up under
    ``timeouts``, never as errors); ``priority_mix`` — ``"0:0.8,10:0.2"`` or
    ``[(priority, weight), ...]`` — assigns priority bands deterministically
    (both are envelope fields).
    """
    if num_threads < 1:
        raise WorkloadError("num_threads must be at least 1")
    if target_qps is not None and target_qps <= 0:
        raise WorkloadError("target_qps must be positive (or None for closed-loop)")
    queries = with_serving_fields(list(trace), deadline_seconds=deadline_seconds,
                                  priority_mix=priority_mix)
    events: list[ReplayEvent | None] = [None] * len(queries)
    cursor = iter(range(len(queries)))
    cursor_lock = threading.Lock()
    start = time.perf_counter()

    def worker() -> None:
        while True:
            with cursor_lock:
                index = next(cursor, None)
            if index is None:
                client.close()
                return
            if target_qps is not None:
                release = start + index / target_qps
                delay = release - time.perf_counter()
                if delay > 0:
                    time.sleep(delay)
            sent = time.perf_counter()
            try:
                outcome = client.send(queries[index])
            except Exception as exc:
                outcome = exc
            events[index] = ReplayEvent.observed(
                index, queries[index], time.perf_counter() - sent, outcome)

    threads = [
        threading.Thread(target=worker, name=f"gc-loadgen-{i}", daemon=True)
        for i in range(num_threads)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return ReplayResult(
        trace_name=trace.name,
        events=[event for event in events if event is not None],
        elapsed_seconds=time.perf_counter() - start,
        target_qps=target_qps,
        num_threads=num_threads,
    )


# ---------------------------------------------------------------------- #
# trace generation
# ---------------------------------------------------------------------- #
def _skew_mix(skew: str, query_type: QueryType) -> WorkloadMix:
    if skew == "uniform":
        return WorkloadMix(zipf_alpha=0.0, query_type=query_type)
    if skew == "zipfian":
        return WorkloadMix(zipf_alpha=1.2, repeat_fraction=0.4, fresh_fraction=0.1,
                           shrink_fraction=0.25, extend_fraction=0.25,
                           query_type=query_type)
    if skew == "drifting":
        return WorkloadMix(zipf_alpha=1.2, drift=True, repeat_fraction=0.35,
                           shrink_fraction=0.25, extend_fraction=0.25,
                           fresh_fraction=0.15, query_type=query_type)
    raise WorkloadError(
        f"unknown trace skew {skew!r}; available: {', '.join(TRACE_SKEWS)}"
    )


def generate_trace(
    dataset: list[Graph],
    num_queries: int,
    skew: str = "uniform",
    query_type: QueryType | str = "subgraph",
    seed: int | None = 2018,
    name: str | None = None,
) -> Workload:
    """Generate a replayable trace with one of the canonical skews.

    ``query_type`` may be ``"subgraph"``, ``"supergraph"`` or ``"mixed"``
    (alternating semantics drawn from two independent pattern pools, the
    shape the equivalence tests use).  Traces are plain workloads: save with
    :meth:`Workload.save`, reload with :meth:`Workload.load`, replay with
    :func:`replay_trace` — bit-identical under the same seed.
    """
    trace_name = name or f"trace-{skew}-{num_queries}q"
    if isinstance(query_type, str) and query_type.lower() == "mixed":
        half = num_queries // 2
        sub = generate_trace(dataset, num_queries - half, skew=skew,
                             query_type=QueryType.SUBGRAPH, seed=seed)
        sup = generate_trace(dataset, half, skew=skew,
                             query_type=QueryType.SUPERGRAPH,
                             seed=None if seed is None else seed + 1)
        queries: list[Query] = []
        for position in range(num_queries):
            source = sub.queries if position % 2 == 0 else sup.queries
            queries.append(source[position // 2])
        metadata = {"skew": skew, "query_type": "mixed", "seed": seed}
        return Workload(name=trace_name, queries=queries, metadata=metadata)
    mix = _skew_mix(skew, QueryType.parse(query_type))
    generator = WorkloadGenerator(dataset, rng=seed)
    trace = generator.generate(num_queries, mix=mix, name=trace_name)
    trace.metadata.update({"skew": skew, "seed": seed})
    return trace
