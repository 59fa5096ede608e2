"""Systems under test: how each workload's system is built, probed and reaped.

Two shapes behind one small surface (``run`` / ``engine_pids`` /
``counters`` / ``close``):

* :class:`LocalSystem` — a :class:`LocalGraphService` in this process; with
  the ``sharded_process`` config its two shard workers are spawned child
  processes the service owns;
* :class:`ServedSystem` — a :class:`QueryServer` in a child process this
  module launches (``server_child.py``), driven through
  :class:`RemoteGraphService`.

Everything is built with the shipped defaults (``GCConfig()``,
``QueryServer(...)``); only the fields a workload names differ.  CPU time and
peak RSS of other processes are read from ``/proc`` before they are stopped.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
from pathlib import Path

from repro.api import LocalGraphService, RemoteGraphService

_CLOCK_TICKS = os.sysconf("SC_CLK_TCK")

#: Seconds a child gets to report ready / to exit after being told to stop.
CHILD_TIMEOUT_S = 60.0


def cpu_seconds(pid: int) -> float:
    """User + system CPU seconds a process has used so far."""
    if pid == os.getpid():
        return time.process_time()
    stat = Path(f"/proc/{pid}/stat").read_text()
    fields = stat[stat.rindex(")") + 2:].split()  # comm may contain spaces
    return (int(fields[11]) + int(fields[12])) / _CLOCK_TICKS


def peak_rss_mb(pid: int) -> float:
    """High-water mark of a process's resident set (``VmHWM``)."""
    for line in Path(f"/proc/{pid}/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"/proc/{pid}/status has no VmHWM line")


def engine_counters(system) -> dict:
    """What the public accessors of a (possibly sharded) system report."""
    caches = system.all_caches()
    reports = [report for cache in caches for report in cache.eviction_reports()]
    counters = {
        "cache_entries": sum(len(cache) for cache in caches),
        "cache_admissions": sum(report.num_admitted for report in reports),
        "cache_evictions": sum(report.num_evicted for report in reports),
        "cache_memory_bytes": system.cache_memory_bytes(),
        "index_memory_bytes": system.index_memory_bytes(),
    }
    describe_shards = getattr(system, "describe_shards", None)
    if describe_shards is not None:
        # process shards keep their caches worker-side: the population comes
        # from each worker's /describe, admissions/evictions are not exposed
        counters["cache_entries"] = sum(
            (row.get("cache") or {}).get("population", 0) for row in describe_shards()
        )
        scatter = system.scatter_metrics()
        counters["scatter"] = scatter["stats"]
        counters["hedges"] = scatter["hedging"]["hedges_issued"]
        counters["respawns"] = sum(row.get("respawns", 0) for row in system.worker_liveness())
    return counters


class LocalSystem:
    """The in-process backend (unsharded, or process shards it spawns)."""

    def __init__(self, spec, data: list) -> None:
        self.service = LocalGraphService(data, spec.gc_config())
        #: Seconds of start-up that were the benchmark's own data generation.
        self.own_seconds = 0.0

    def run(self, query):
        return self.service.run(query)

    def engine_pids(self) -> list[int]:
        pids = [os.getpid()]
        liveness = getattr(self.service.system, "worker_liveness", None)
        if liveness is not None:
            pids += [row["pid"] for row in liveness() if "pid" in row]
        return pids

    def counters(self) -> dict:
        return engine_counters(self.service.system)

    def release_thread(self) -> None:
        """Nothing is held per client thread."""

    def close(self) -> dict:
        self.service.close()
        return {}

    abort = close  # shard workers are joined, then terminated, by the service


class ServedSystem:
    """A :class:`QueryServer` child process plus the sync HTTP client."""

    def __init__(self, spec, scale: float = 1.0, traced: bool = False,
                 server_options: dict | None = None) -> None:
        child = Path(__file__).with_name("server_child.py")
        command = [sys.executable, str(child), "--dataset", spec.dataset,
                   "--scale", repr(scale), "--trace", "1" if traced else "0",
                   "--server-options", json.dumps(server_options or {})]
        self.process = subprocess.Popen(
            command, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )
        try:
            ready = self._read_line()
            self.own_seconds = float(ready["dataset_s"])
            self.service = RemoteGraphService("127.0.0.1", int(ready["port"]), timeout=30.0)
        except BaseException:
            self._kill()
            raise

    def _read_line(self) -> dict:
        line = self.process.stdout.readline()
        if not line:
            raise RuntimeError(
                f"server child exited with code {self.process.wait()} before replying"
            )
        return json.loads(line)

    def abort(self) -> None:
        """Kill the child without asking it for a report."""
        self._kill()

    def _kill(self) -> None:
        if self.process.poll() is None:
            self.process.kill()
        self.process.wait()
        for stream in (self.process.stdin, self.process.stdout):
            stream.close()

    def run(self, query):
        return self.service.run(query)

    def engine_pids(self) -> list[int]:
        return [self.process.pid]

    def counters(self) -> dict:
        """Serving-side counters over the public HTTP endpoints."""
        return {"batcher": self.service.stats()["batcher"]}

    def health_round_trip_ms(self, samples: int = 40) -> float:
        """Median ``GET /health`` round trip: what HTTP costs with no query."""
        times = []
        for _ in range(samples):
            begun = time.perf_counter()
            self.service.health()
            times.append(time.perf_counter() - begun)
        times.sort()
        return times[len(times) // 2] * 1e3

    def release_thread(self) -> None:
        """Close the calling thread's keep-alive connection."""
        self.service.close()

    def close(self) -> dict:
        """Stop the child; returns its final report (engine counters, spans)."""
        self.service.close()
        try:
            self.process.stdin.write("stop\n")
            self.process.stdin.flush()
            final = self._read_line()
            self.process.wait(timeout=CHILD_TIMEOUT_S)
        finally:
            self._kill()
        return final


def start_system(spec, data: list, scale: float = 1.0, traced: bool = False,
                 server_options: dict | None = None):
    """Build the system ``spec`` runs on (cold: nothing is reused)."""
    if spec.system == "served":
        return ServedSystem(spec, scale=scale, traced=traced, server_options=server_options)
    return LocalSystem(spec, data)
