"""Reader-writer lock used to make the cache safe under concurrent queries.

The query hot path only *reads* cache structures (:meth:`GraphCache.lookup`),
while crediting, admission and replacement *write* them, each on the thread
of the query that triggers it.  A reader-writer lock lets concurrent callers
(library threads, a server's handler threads, a shard worker's handlers)
probe the cache simultaneously and only serialises the rare mutations.

Writers are preferred: once a writer is waiting, new readers queue behind it
so admission cannot be starved by a steady stream of lookups.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager


class ReadWriteLock:
    """A writer-preference reader-writer lock.

    Not reentrant: a thread must not acquire the write lock while holding
    the read lock (or vice versa).  The cache's internal helpers are layered
    so that locked public methods only call unlocked private ones.
    """

    def __init__(self) -> None:
        self._cond = threading.Condition()
        self._active_readers = 0
        self._waiting_writers = 0
        self._writer_active = False

    # ------------------------------------------------------------------ #
    # read side
    # ------------------------------------------------------------------ #
    def acquire_read(self) -> None:
        with self._cond:
            while self._writer_active or self._waiting_writers > 0:
                self._cond.wait()
            self._active_readers += 1

    def release_read(self) -> None:
        with self._cond:
            self._active_readers -= 1
            if self._active_readers == 0:
                self._cond.notify_all()

    # ------------------------------------------------------------------ #
    # write side
    # ------------------------------------------------------------------ #
    def acquire_write(self) -> None:
        with self._cond:
            self._waiting_writers += 1
            try:
                while self._writer_active or self._active_readers > 0:
                    self._cond.wait()
            finally:
                self._waiting_writers -= 1
            self._writer_active = True

    def release_write(self) -> None:
        with self._cond:
            self._writer_active = False
            self._cond.notify_all()

    # ------------------------------------------------------------------ #
    # context managers
    # ------------------------------------------------------------------ #
    @contextmanager
    def read_locked(self):
        """``with lock.read_locked():`` — shared access."""
        self.acquire_read()
        try:
            yield
        finally:
            self.release_read()

    @contextmanager
    def write_locked(self):
        """``with lock.write_locked():`` — exclusive access."""
        self.acquire_write()
        try:
            yield
        finally:
            self.release_write()
