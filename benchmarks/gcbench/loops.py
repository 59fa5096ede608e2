"""Load generators: the closed loop and the open loop, one record per operation.

*Closed loop*: each client thread issues its next operation when the previous
one returned, so a slow system receives less load; latency runs from the call
to its return.  *Open loop*: operation ``i`` is **due** at ``i / rate``
seconds whatever the system does; latency runs from the due time (so a stall
charges every request it delays), and how late the generator itself sent is
recorded as ``lateness``.  Client threads take operations from one shared
counter, so the trace order is the issue order.

A failed operation (typed error from the service — 429, 504, transport — or
anything else the call raised) is recorded with the error's class name and
never retried; operations not issued before ``give_up_at`` fail as
``time-cap`` so a wedged system cannot hold the benchmark past its budget.
"""

from __future__ import annotations

import itertools
import threading
import time
from dataclasses import dataclass

from repro.query_model import Query

from gcbench import tracer
from gcbench.speed import SpeedLog

#: An open-loop sender times the reference kernel only when the next
#: request is at least this far off, so sampling never makes a send late.
OPEN_LOOP_SLACK_S = 0.002


@dataclass
class Op:
    """One operation as the client saw it (times are ``perf_counter`` reads)."""

    index: int
    due_s: float
    sent_s: float = 0.0
    done_s: float = 0.0
    response: object = None
    error: str | None = None

    @property
    def latency_s(self) -> float:
        """Due-to-done: equals call-to-return in a closed loop."""
        return self.done_s - self.due_s

    @property
    def service_s(self) -> float:
        return self.done_s - self.sent_s

    @property
    def lateness_s(self) -> float:
        return self.sent_s - self.due_s


def run_loop(system, queries: list[Query], clients: int, speed: SpeedLog,
             rate: float | None = None,
             recorder: tracer.SpanRecorder | None = None, trace_prefix: str = "",
             give_up_after_s: float = 120.0) -> tuple[list[Op], float, float]:
    """Issue every query once; returns ``(ops, started_s, ended_s)``.

    ``rate`` (operations per second) selects the open loop; ``None`` the
    closed loop.  Between operations (open loop: while waiting for the next
    due time) a client times the reference kernel into ``speed``.  With a
    ``recorder`` each operation runs inside a root ``client.op`` span whose
    trace id is ``trace_prefix`` + its index, and the query carries that
    context in its metadata.
    """
    ops: list[Op | None] = [None] * len(queries)
    ticket = itertools.count()
    started = time.perf_counter()
    give_up_at = started + give_up_after_s

    def client() -> None:
        try:
            while True:
                index = next(ticket)
                if index >= len(queries):
                    return
                query = queries[index]
                if rate:
                    due = started + index / rate
                    if due - time.perf_counter() > OPEN_LOOP_SLACK_S:
                        speed.sample_if_due()
                    delay = due - time.perf_counter()
                    if delay > 0:
                        time.sleep(delay)
                else:
                    due = None  # a closed-loop operation is due when it is sent
                    speed.sample_if_due()
                sent = time.perf_counter()
                op = ops[index] = Op(index=index, due_s=sent if due is None else due,
                                     sent_s=sent)
                if sent > give_up_at:
                    op.error, op.done_s = "time-cap", sent
                    continue
                span = None
                if recorder is not None:
                    trace_id = f"{trace_prefix}{index}" if trace_prefix else index
                    span = recorder.open("client.op", "client", trace_id, None)
                    query = Query(graph=query.graph, query_type=query.query_type,
                                  metadata=dict(query.metadata))
                    tracer.stamp(query.metadata, trace_id, span.span_id)
                try:
                    op.response = system.run(query)
                except Exception as exc:  # the benchmark counts, never retries
                    op.error = type(exc).__name__
                finally:
                    op.done_s = time.perf_counter()
                    if span is not None:
                        recorder.close(span)
        finally:
            system.release_thread()

    threads = [threading.Thread(target=client, name=f"gcbench-client-{n}", daemon=True)
               for n in range(clients)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    ended = max((op.done_s for op in ops if op is not None), default=started)
    return [op for op in ops if op is not None], started, ended
