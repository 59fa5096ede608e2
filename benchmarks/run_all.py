#!/usr/bin/env python
"""Run the full benchmark suite and emit machine-readable results.

Entry point for performance tracking: runs every ``test_bench_*`` module
under pytest, then collates everything the benchmarks wrote to
``benchmarks/results/`` — both the human-readable ``*.txt`` tables and the
machine-readable ``BENCH_*.json`` files — into a single
``benchmarks/results/BENCH_all.json`` manifest, so the perf trajectory can
be diffed across PRs by tooling.

Usage (from the repository root)::

    PYTHONPATH=src python benchmarks/run_all.py            # everything
    PYTHONPATH=src python benchmarks/run_all.py -k shard   # a subset
    PYTHONPATH=src python benchmarks/run_all.py --smoke    # CI-sized runs

``--smoke`` sets ``GC_BENCH_SMOKE=1`` for the benchmark processes: modules
that opt in (via :func:`benchmarks.harness.smoke_scaled`) shrink their
workloads to CI-friendly sizes while keeping the same scenario shape, so CI
can track the perf trajectory on every push without multi-minute runs.
"""

from __future__ import annotations

import argparse
import json
import platform
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
REPO_ROOT = BENCH_DIR.parent
RESULTS_DIR = BENCH_DIR / "results"


def run_benchmarks(extra_args: list[str], smoke: bool = False,
                   shards: int | None = None, scatter: str | None = None,
                   shard_backend: str | None = None) -> int:
    """Run the benchmark pytest modules; returns the pytest exit code."""
    env_path = str(REPO_ROOT / "src")
    import os

    env = dict(os.environ)
    env["PYTHONPATH"] = env_path + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    if smoke:
        env["GC_BENCH_SMOKE"] = "1"
    if shards is not None:
        env["GC_BENCH_SHARDS"] = str(shards)
    if scatter is not None:
        env["GC_BENCH_SCATTER"] = scatter
    if shard_backend is not None:
        env["GC_BENCH_SHARD_BACKEND"] = shard_backend
    command = [sys.executable, "-m", "pytest", str(BENCH_DIR), "-q", *extra_args]
    print("$", " ".join(command), "(smoke mode)" if smoke else "")
    return subprocess.call(command, cwd=REPO_ROOT, env=env)


def collate(exit_code: int, smoke: bool = False) -> Path:
    """Gather every result file into one BENCH_all.json manifest."""
    machine_results = {}
    for path in sorted(RESULTS_DIR.glob("BENCH_*.json")):
        if path.name == "BENCH_all.json":
            continue
        try:
            machine_results[path.stem] = json.loads(path.read_text(encoding="utf-8"))
        except json.JSONDecodeError:
            machine_results[path.stem] = {"error": "unreadable JSON"}
    manifest = {
        "exit_code": exit_code,
        "smoke_mode": smoke,
        "python": platform.python_version(),
        "platform": platform.platform(),
        "text_reports": sorted(
            p.name for p in RESULTS_DIR.glob("*.txt")
        ),
        "machine_results": machine_results,
    }
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    out = RESULTS_DIR / "BENCH_all.json"
    out.write_text(json.dumps(manifest, indent=2, sort_keys=True), encoding="utf-8")
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("-k", dest="keyword", default=None,
                        help="only run benchmarks matching this pytest -k expression")
    parser.add_argument("--smoke", action="store_true",
                        help="CI-sized runs: benchmarks shrink their workloads")
    parser.add_argument("--shards", type=int, default=None,
                        help="pin the shard count of the scatter-aware "
                             "benchmarks (GC_BENCH_SHARDS)")
    parser.add_argument("--scatter", choices=["full", "short-circuit"], default=None,
                        help="scatter mode the scatter-aware benchmarks treat "
                             "as the arm under test (GC_BENCH_SCATTER)")
    parser.add_argument("--shard-backend", choices=["thread", "process"],
                        default=None,
                        help="shard execution backend the backend-aware "
                             "benchmarks pin (GC_BENCH_SHARD_BACKEND)")
    parser.add_argument("pytest_args", nargs="*",
                        help="extra arguments passed through to pytest")
    args = parser.parse_args(argv)

    extra = list(args.pytest_args)
    if args.keyword:
        extra += ["-k", args.keyword]
    exit_code = run_benchmarks(extra, smoke=args.smoke,
                               shards=args.shards, scatter=args.scatter,
                               shard_backend=args.shard_backend)
    manifest = collate(exit_code, smoke=args.smoke)
    print(f"wrote {manifest}")
    return exit_code


if __name__ == "__main__":
    sys.exit(main())
