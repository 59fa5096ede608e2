"""A gated dispatcher: hold a batcher inside its first batch to build backlog.

Serving has no coalescing timer: a batch is the head plus whatever is
already queued when the dispatcher is free.  A test that wants a batch of N
therefore holds the dispatcher inside a first *plug* batch, submits N queries
while it is held, and releases it; the next batch is then exactly
``min(N, max_batch_size)`` of them.  Nothing here sleeps or assumes timing.
"""

from __future__ import annotations

import threading
from concurrent.futures import Future

from repro.query_model import Query


class GatedDispatcher:
    """Wraps ``system.run_batch``: the first call blocks until :meth:`release`.

    ``batches`` holds the queries of every ``run_batch`` call, in dispatch
    order (the plug batch first).
    """

    def __init__(self, system) -> None:
        self.batches: list[list[Query]] = []
        self._entered = threading.Event()
        self._gate = threading.Event()
        run_batch = system.run_batch

        def gated(queries, *args, **kwargs):
            queries = list(queries)
            self.batches.append(queries)
            if len(self.batches) == 1:
                self._entered.set()
                assert self._gate.wait(30), "test never released the gate"
            return run_batch(queries, *args, **kwargs)

        system.run_batch = gated

    def plug(self, batcher, query: Query) -> Future:
        """Submit the plug query; return once the dispatcher is held in it."""
        future = batcher.submit(query)
        assert self._entered.wait(30), "dispatcher never started the plug batch"
        return future

    def release(self) -> None:
        self._gate.set()
