"""Shared helpers for the benchmark harness.

Every benchmark regenerates one table/figure of the paper's evaluation (see
DESIGN.md's experiment index).  The helpers here build the standard datasets
and workloads, format result tables, and write each experiment's report to
``benchmarks/results/<experiment>.txt`` so the regenerated numbers survive the
pytest run (stdout is captured by pytest).
"""

from __future__ import annotations

import functools
import json
import os
import time
from pathlib import Path

from repro.dashboard import format_table
from repro.graph import molecule_dataset
from repro.graph.graph import Graph
from repro.isomorphism.base import MatchResult, SubgraphMatcher
from repro.isomorphism.vf2 import VF2Matcher
from repro.workload import Workload, WorkloadGenerator, WorkloadMix

RESULTS_DIR = Path(__file__).parent / "results"

#: Environment flag (set by ``run_all.py --smoke``) that asks benchmarks to
#: shrink their workloads to CI-friendly sizes while keeping the same shape.
SMOKE_ENV_VAR = "GC_BENCH_SMOKE"

#: Environment overrides (set by ``run_all.py --shards/--scatter``) that pin
#: the shard count and scatter mode of the scatter-aware benchmarks, so CI
#: can exercise the short-circuit configuration end to end.
SHARDS_ENV_VAR = "GC_BENCH_SHARDS"
SCATTER_ENV_VAR = "GC_BENCH_SCATTER"

#: Environment override (set by ``run_all.py --shard-backend``) that pins the
#: shard execution backend (``thread`` or ``process``) of the backend-aware
#: benchmarks, so CI can smoke the multiprocess path end to end.
SHARD_BACKEND_ENV_VAR = "GC_BENCH_SHARD_BACKEND"


def smoke_mode() -> bool:
    """True when the suite runs in smoke mode (CI perf tracking)."""
    return os.environ.get(SMOKE_ENV_VAR, "").strip() not in ("", "0", "false")


def smoke_scaled(full: int, smoke: int) -> int:
    """Pick a benchmark size: ``full`` normally, ``smoke`` in smoke mode."""
    return smoke if smoke_mode() else full


def bench_shards(default: int) -> int:
    """The shard count a scatter-aware benchmark should run at."""
    raw = os.environ.get(SHARDS_ENV_VAR, "").strip()
    return int(raw) if raw else default


def bench_scatter_mode(default: str) -> str:
    """The scatter mode a scatter-aware benchmark should treat as the arm
    under test (``full`` or ``short-circuit``)."""
    raw = os.environ.get(SCATTER_ENV_VAR, "").strip()
    return raw or default


def bench_shard_backend(default: str) -> str:
    """The shard backend (``thread``/``process``) a benchmark should pin."""
    raw = os.environ.get(SHARD_BACKEND_ENV_VAR, "").strip()
    return raw or default


def available_cpus() -> int:
    """CPU cores actually usable by this process (cgroup/affinity aware).

    Process-shard scaling benchmarks record this and only enforce their
    speedup floors when enough cores exist to express the parallelism.
    """
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux fallback
        return os.cpu_count() or 1


class SimulatedLatencyMatcher(SubgraphMatcher):
    """VF2 plus a fixed per-test latency (verification-bound deployments).

    Models the regime the paper targets — query cost dominated by dataset
    sub-iso verification, as if dataset graphs were disk/network-resident.
    That latency is where a deployment actually waits, and it is what the
    scatter pool (one slot per shard) overlaps.
    """

    name = "vf2+latency"

    def __init__(self, latency_seconds: float) -> None:
        self._inner = VF2Matcher()
        self._latency = latency_seconds

    def find_embedding(self, query: Graph, target: Graph) -> MatchResult:
        time.sleep(self._latency)
        return self._inner.find_embedding(query, target)


def make_latency_direct_method(latency_seconds: float):
    """Build a direct-SI method whose verifier sleeps per test.

    Module-level on purpose: process shard workers receive their method
    factory by pickling, and only module-level callables survive the spawn
    boundary.  Use :func:`latency_method_factory` to bind the latency.
    """
    from repro.methods import DirectSIMethod

    return DirectSIMethod(verifier=SimulatedLatencyMatcher(latency_seconds))


def latency_method_factory(latency_seconds: float):
    """A picklable zero-argument factory for the latency-bound method."""
    return functools.partial(make_latency_direct_method, latency_seconds)


def standard_dataset(num_graphs: int = 100, seed: int = 2018,
                     min_vertices: int = 10, max_vertices: int = 35) -> list[Graph]:
    """The AIDS-like dataset used by most experiments (100 molecule graphs)."""
    return molecule_dataset(num_graphs, min_vertices=min_vertices,
                            max_vertices=max_vertices, rng=seed)


def standard_workload(dataset: list[Graph], num_queries: int, mix: str | WorkloadMix,
                      seed: int = 7, name: str | None = None) -> Workload:
    """A workload over the standard dataset with a named or explicit mix."""
    generator = WorkloadGenerator(dataset, rng=seed)
    return generator.generate(num_queries, mix=mix, name=name)


def write_report(experiment: str, title: str, body: str) -> Path:
    """Write one experiment's regenerated table to benchmarks/results/."""
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    path = RESULTS_DIR / f"{experiment}.txt"
    content = f"{title}\n{'=' * len(title)}\n\n{body}\n"
    path.write_text(content, encoding="utf-8")
    return path


def rows_to_report(experiment: str, title: str, rows: list[dict], columns=None) -> str:
    """Format rows as a table, write the report file, and return the text."""
    table = format_table(rows, columns=columns)
    write_report(experiment, title, table)
    return table


def write_json_report(experiment: str, payload: dict) -> Path:
    """Write one experiment's machine-readable results.

    Files are named ``BENCH_<experiment>.json`` so tooling (and
    ``benchmarks/run_all.py``) can track the performance trajectory across
    PRs without parsing the human-readable tables.
    """
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    path = RESULTS_DIR / f"BENCH_{experiment}.json"
    path.write_text(json.dumps(payload, indent=2, sort_keys=True), encoding="utf-8")
    return path
