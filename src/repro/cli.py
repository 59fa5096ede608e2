"""Command-line interface to the GC reproduction.

The demo exposes GC through web dashboards; this CLI is the terminal
equivalent, wrapping the library's public API:

* ``graphcache generate-dataset`` — write a synthetic dataset to disk
  (transaction text, JSON or SDF);
* ``graphcache run-workload``     — generate/run a workload over GC and print
  the Workload Run view plus the developer monitor summary;
* ``graphcache compare-policies`` — experiment I style policy competition;
* ``graphcache journey``          — Scenario I, the Query Journey, for one
  query over a warm cache;
* ``graphcache serve``            — the embedded query server (batching,
  admission control, ``/metrics``), optionally warm-started from a snapshot;
* ``graphcache loadgen``          — trace-replay load generation against a
  running server at a target QPS;
* ``graphcache trace``            — fetch span trees from a running server's
  ``/debug/traces`` and pretty-print them (one tree per traced query:
  client send → queue → batch → plan/scatter → per-shard pipeline → merge).

Every command accepts ``--seed`` so runs are reproducible.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

from repro import __version__
from repro.api.remote import RemoteGraphService
from repro.cache.policies.registry import available_policies
from repro.dashboard import (
    DeveloperMonitor,
    QueryJourney,
    WorkloadRunView,
    format_table,
    policy_speedup_table,
)
from repro.graph import (
    load_dataset,
    load_sdf_file,
    molecule_dataset,
    save_json_file,
    save_sdf_file,
    save_transaction_file,
    synthetic_dataset,
)
from repro.graph.operations import random_connected_subgraph
from repro.methods.registry import available_methods
from repro.runtime import GCConfig
from repro.runtime.config import (
    ADMISSION_MODES,
    SCATTER_MODES,
    SHARD_BACKENDS,
    SHARD_POLICIES,
)
from repro.server import QueryServer
from repro.sharding import make_system
from repro.workload import (
    TRACE_SKEWS,
    Workload,
    WorkloadGenerator,
    compare_policies,
    generate_trace,
    replay_trace,
    run_workload,
)


def build_parser() -> argparse.ArgumentParser:
    """Build the top-level argument parser."""
    parser = argparse.ArgumentParser(
        prog="graphcache",
        description="GC: a semantic cache for subgraph/supergraph queries (VLDB 2018 reproduction)",
    )
    parser.add_argument("--version", action="version", version=f"graphcache {__version__}")
    subparsers = parser.add_subparsers(dest="command", required=True)

    generate = subparsers.add_parser("generate-dataset", help="write a synthetic dataset to disk")
    generate.add_argument("output", type=Path, help="output file (.txt, .json or .sdf)")
    generate.add_argument("--kind", default="molecule",
                          choices=["molecule", "random", "powerlaw", "protein"])
    generate.add_argument("--count", type=int, default=100, help="number of graphs")
    generate.add_argument("--seed", type=int, default=2018)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--dataset", type=Path, default=None,
                        help="dataset file; omitted = synthetic molecules")
    common.add_argument("--dataset-size", type=int, default=100,
                        help="synthetic dataset size when --dataset is omitted")
    common.add_argument("--seed", type=int, default=2018)
    common.add_argument("--method", default="graphgrep-sx", choices=available_methods())
    common.add_argument("--feature-size", type=int, default=2,
                        help="feature size for FTV methods")
    common.add_argument("--cache-capacity", type=int, default=50)
    common.add_argument("--window-size", type=int, default=10)
    common.add_argument("--shards", type=int, default=1,
                        help="partition the dataset across N scatter-gather shards "
                             "(1 = single system)")
    common.add_argument("--shard-policy", default="hash", choices=list(SHARD_POLICIES),
                        help="how graphs are routed to shards")
    common.add_argument("--shard-backend", default="thread",
                        choices=list(SHARD_BACKENDS),
                        help="shard hosting: 'thread' runs shards in-process, the "
                             "differential reference (shards take turns on the "
                             "GIL, so it is no faster than one system); "
                             "'process' spawns one worker process per shard, the "
                             "backend that can go faster (CPU-bound "
                             "verification overlaps across processes)")
    common.add_argument("--scatter", default="full", choices=list(SCATTER_MODES),
                        help="scatter strategy: 'full' sends every query to every "
                             "shard; 'short-circuit' skips shards whose feature "
                             "summary proves they cannot contribute answers")
    common.add_argument("--admission-mode", default="queue-depth",
                        choices=list(ADMISSION_MODES),
                        help="serving admission: bounded queue only, or cost-based "
                             "per-shard backpressure (serve command)")

    run = subparsers.add_parser("run-workload", parents=[common],
                                help="run a workload over GC and print the dashboards")
    run.add_argument("--queries", type=int, default=50)
    run.add_argument("--mix", default="popular")
    run.add_argument("--policy", default="HD", choices=available_policies())

    compare = subparsers.add_parser("compare-policies", parents=[common],
                                    help="run the same workload under several policies")
    compare.add_argument("--queries", type=int, default=50)
    compare.add_argument("--mix", default="popular")
    compare.add_argument("--policies", nargs="+", default=["LRU", "POP", "PIN", "PINC", "HD"])

    journey = subparsers.add_parser("journey", parents=[common],
                                    help="the Query Journey for one query over a warm cache")
    journey.add_argument("--warm-queries", type=int, default=50)
    journey.add_argument("--query-vertices", type=int, default=8)

    serve = subparsers.add_parser("serve", parents=[common],
                                  help="serve graph queries over HTTP (batching + backpressure)")
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8080,
                       help="listen port (0 = ephemeral, printed at startup)")
    serve.add_argument("--policy", default="HD", choices=available_policies())
    serve.add_argument("--batch-size", type=int, default=4,
                       help="max queries per batch: the dispatcher serves the head "
                            "plus whatever is already queued, in priority order")
    serve.add_argument("--queue-depth", type=int, default=64,
                       help="admission queue bound; full queue replies 429")
    serve.add_argument("--snapshot-path", type=Path, default=None,
                       help="cache snapshot: restored at startup, saved at shutdown")
    serve.add_argument("--duration", type=float, default=None,
                       help="serve for N seconds then drain (default: until Ctrl-C)")
    serve.add_argument("--trace-sample-rate", type=float, default=0.0,
                       help="fraction of requests the server traces end to end "
                            "(0 disables, 1 traces everything)")
    serve.add_argument("--slow-query-threshold", type=float, default=1.0,
                       help="seconds over which a traced query is kept as a "
                            "slow-query exemplar (full span tree + scatter plan)")
    serve.add_argument("--slow-query-log", action="store_true",
                       help="log slow-query exemplars to stderr as they happen "
                            "(implies structured logging setup)")

    loadgen = subparsers.add_parser("loadgen", parents=[common],
                                    help="replay a query trace against a running server")
    loadgen.add_argument("--host", default="127.0.0.1")
    loadgen.add_argument("--port", type=int, required=True)
    loadgen.add_argument("--trace", type=Path, default=None,
                         help="saved trace (JSON workload) to replay; omitted = generate")
    loadgen.add_argument("--queries", type=int, default=100,
                         help="trace length when generating")
    loadgen.add_argument("--skew", default="zipfian", choices=list(TRACE_SKEWS),
                         help="popularity skew of the generated trace")
    loadgen.add_argument("--query-type", default="mixed",
                         choices=["subgraph", "supergraph", "mixed"])
    loadgen.add_argument("--save-trace", type=Path, default=None,
                         help="write the generated trace here before replaying")
    loadgen.add_argument("--qps", type=float, default=None,
                         help="open-loop target QPS (default: closed-loop)")
    loadgen.add_argument("--threads", type=int, default=4,
                         help="concurrent client threads, one keep-alive "
                              "connection each")
    loadgen.add_argument("--deadline-ms", type=float, default=None,
                         help="per-query deadline in milliseconds; the server "
                              "sheds queries it cannot start in time (504s "
                              "count as timeouts, not errors)")
    loadgen.add_argument("--priority-mix", default=None,
                         help="weighted priority bands, e.g. '0:0.8,10:0.2' — "
                              "each query draws a band deterministically")

    trace = subparsers.add_parser(
        "trace", help="fetch and pretty-print span trees from /debug/traces")
    trace.add_argument("--host", default="127.0.0.1")
    trace.add_argument("--port", type=int, required=True)
    trace.add_argument("--trace-id", default=None,
                       help="fetch one specific trace by id")
    trace.add_argument("--sort", default="recent", choices=["recent", "slowest"],
                       help="listing order when no --trace-id is given")
    trace.add_argument("--count", type=int, default=5,
                       help="number of trees to list")

    return parser


def _load_or_generate_dataset(args) -> list:
    if args.dataset is not None:
        path = Path(args.dataset)
        if path.suffix.lower() == ".sdf":
            return load_sdf_file(path)
        return load_dataset(path)
    return molecule_dataset(args.dataset_size, min_vertices=10, max_vertices=35, rng=args.seed)


def _config_from_args(args, policy: str | None = None) -> GCConfig:
    options = {}
    if args.method == "graphgrep-sx":
        options["feature_size"] = args.feature_size
    return GCConfig(
        cache_capacity=args.cache_capacity,
        window_size=min(args.window_size, args.cache_capacity),
        replacement_policy=policy or getattr(args, "policy", "HD"),
        method=args.method,
        method_options=options,
        num_shards=getattr(args, "shards", 1),
        shard_policy=getattr(args, "shard_policy", "hash"),
        shard_backend=getattr(args, "shard_backend", "thread"),
        scatter_mode=getattr(args, "scatter", "full"),
        admission_mode=getattr(args, "admission_mode", "queue-depth"),
        trace_sample_rate=getattr(args, "trace_sample_rate", 0.0),
        slow_query_threshold_s=getattr(args, "slow_query_threshold", 1.0),
    )


def cmd_generate_dataset(args) -> int:
    """Generate a synthetic dataset and write it in the requested format."""
    dataset = synthetic_dataset(args.count, kind=args.kind, rng=args.seed)
    suffix = args.output.suffix.lower()
    if suffix == ".json":
        save_json_file(dataset, args.output)
    elif suffix == ".sdf":
        save_sdf_file(dataset, args.output)
    else:
        save_transaction_file(dataset, args.output)
    print(f"wrote {len(dataset)} {args.kind} graphs to {args.output}")
    return 0


def cmd_run_workload(args) -> int:
    """Run one workload over GC and print the end-user and developer views."""
    dataset = _load_or_generate_dataset(args)
    workload = WorkloadGenerator(dataset, rng=args.seed + 1).generate(
        args.queries, mix=args.mix, name=args.mix
    )
    with make_system(dataset, _config_from_args(args)) as system:
        result = run_workload(system, workload)
        print(WorkloadRunView(result).render_text())
        print()
        print(DeveloperMonitor(system).render_text())
        if result.scatter is not None:
            stats = result.scatter["stats"]
            print()
            print(f"Scatter ({result.scatter['mode']}): "
                  f"mean fan-out {stats['mean_fanout']:.2f} of {args.shards} shards, "
                  f"skip rate {stats['skip_rate']:.1%}, "
                  f"summary fallbacks {stats['summary_fallbacks']}")
        if result.stage_breakdown:
            print()
            print("Pipeline stage latency")
            rows = [
                {
                    "stage": row["stage"],
                    "total_ms": round(row["total_seconds"] * 1000.0, 3),
                    "mean_ms": round(row["mean_seconds"] * 1000.0, 3),
                    "share_pct": round(row["share"] * 100.0, 1),
                }
                for row in result.stage_breakdown
            ]
            print(format_table(rows, columns=["stage", "total_ms", "mean_ms", "share_pct"]))
    return 0


def cmd_compare_policies(args) -> int:
    """Run the same workload under several policies and print the table."""
    dataset = _load_or_generate_dataset(args)
    workload = WorkloadGenerator(dataset, rng=args.seed + 1).generate(
        args.queries, mix=args.mix, name=args.mix
    )
    results = compare_policies(dataset, workload, args.policies,
                               config=_config_from_args(args, policy=args.policies[0]))
    print(policy_speedup_table(results))
    return 0


def cmd_journey(args) -> int:
    """Warm a cache and narrate the journey of one related query."""
    dataset = _load_or_generate_dataset(args)
    with make_system(dataset, _config_from_args(args)) as system:
        generator = WorkloadGenerator(dataset, rng=args.seed + 1)
        warmup = generator.generate(args.warm_queries, mix="popular", name="warmup")
        system.warm_cache(list(warmup))
        source = max(dataset, key=lambda graph: graph.num_vertices)
        query = random_connected_subgraph(source, min(args.query_vertices, source.num_vertices),
                                          rng=args.seed + 2)
        report = system.run_query(query, "subgraph")
        journey = QueryJourney(
            report,
            dataset_ids=[graph.graph_id for graph in dataset],
            cache_entry_ids=[entry.entry_id for cache in system.all_caches()
                             for entry in cache.entries()],
        )
        print(journey.render_text(columns=20))
    return 0


def cmd_serve(args) -> int:
    """Run the embedded query server until Ctrl-C (or for --duration)."""
    if args.slow_query_log:
        from repro.obs.logs import configure_logging

        # routes every repro.* logger — including repro.obs.slowquery, which
        # emits one WARNING per threshold breach — to stderr with trace ids
        configure_logging()
    dataset = _load_or_generate_dataset(args)
    server = QueryServer(
        dataset,
        _config_from_args(args),
        host=args.host,
        port=args.port,
        max_batch_size=args.batch_size,
        max_queue_depth=args.queue_depth,
        snapshot_path=args.snapshot_path,
    )
    server.start()
    shard_note = (
        f", shards={args.shards}/{args.shard_policy}"
        f"/{args.shard_backend}" if args.shards > 1 else ""
    )
    print(f"serving {len(dataset)} graphs at {server.address} "
          f"(batch={args.batch_size}, queue={args.queue_depth}{shard_note})")
    if args.trace_sample_rate > 0:
        print(f"tracing {args.trace_sample_rate:.0%} of requests "
              f"(slow-query threshold {args.slow_query_threshold:g}s); "
              f"inspect with: graphcache trace --port {server.port}")
    if server.restored_entries:
        print(f"cache warm-started with {server.restored_entries} entries "
              f"from {args.snapshot_path}")
    try:
        if args.duration is not None:
            time.sleep(args.duration)
        else:  # pragma: no cover - interactive mode
            while True:
                time.sleep(3600)
    except KeyboardInterrupt:  # pragma: no cover - interactive mode
        pass
    finally:
        server.stop()
    batcher = server.batcher.stats()
    print(f"drained: served={batcher.served} rejected={batcher.rejected} "
          f"batches={batcher.batches} mean_batch={batcher.mean_batch_size:.2f}")
    if args.snapshot_path is not None:
        print(f"cache snapshot saved to {args.snapshot_path}")
    return 0


def cmd_loadgen(args) -> int:
    """Replay a (loaded or generated) trace against a running server.

    The replay goes through the :mod:`repro.api` SDK's blocking client:
    ``--threads`` keep-alive connections, one thread each.
    """
    if args.trace is not None:
        trace = Workload.load(args.trace)
    else:
        dataset = _load_or_generate_dataset(args)
        trace = generate_trace(dataset, args.queries, skew=args.skew,
                               query_type=args.query_type, seed=args.seed + 1)
        if args.save_trace is not None:
            trace.save(args.save_trace)
            print(f"trace saved to {args.save_trace}")
    deadline_seconds = (args.deadline_ms / 1000.0
                        if args.deadline_ms is not None else None)
    client = RemoteGraphService(args.host, args.port)
    client.health()  # fail fast when no server is listening
    result = replay_trace(client, trace, target_qps=args.qps,
                          num_threads=args.threads,
                          deadline_seconds=deadline_seconds,
                          priority_mix=args.priority_mix)
    print(format_table([result.summary()]))
    return 0 if result.errors == 0 else 1


def _print_span(span: dict, depth: int) -> None:
    duration_ms = span.get("duration_seconds", 0.0) * 1000.0
    attrs = span.get("attributes") or {}
    suffix = "".join(f" {key}={value}" for key, value in sorted(attrs.items()))
    print(f"  {'  ' * depth}{span.get('name', '?'):<{max(1, 30 - 2 * depth)}} "
          f"{duration_ms:9.3f}ms{suffix}")
    for child in span.get("children", []):
        _print_span(child, depth + 1)


def _print_tree(tree: dict) -> None:
    print(f"trace {tree.get('trace_id')} — {tree.get('num_spans')} spans, "
          f"{tree.get('duration_seconds', 0.0) * 1000.0:.3f}ms"
          f"{'' if tree.get('completed', True) else ' (incomplete)'}")
    for root in tree.get("roots", []):
        _print_span(root, 0)


def cmd_trace(args) -> int:
    """Fetch span trees from a server's ``/debug/traces`` and print them."""
    client = RemoteGraphService(args.host, args.port)
    if args.trace_id:
        payload = client.debug_traces(trace_id=args.trace_id)
        _print_tree(payload["trace"])
        return 0
    payload = client.debug_traces(sort=args.sort, count=args.count)
    trees = payload.get("traces", [])
    if not trees:
        print("no traces recorded yet (is the server tracing? "
              "serve --trace-sample-rate 1.0, or send requests "
              "with a client-side sample rate)")
        return 1
    for tree in trees:
        _print_tree(tree)
        print()
    exemplars = payload.get("exemplars", [])
    if exemplars:
        print(f"{len(exemplars)} slow-query exemplar(s) over "
              f"{exemplars[0].get('threshold_seconds', 0.0):g}s — slowest: "
              f"trace {exemplars[0].get('trace_id')} at "
              f"{exemplars[0].get('duration_seconds', 0.0):.3f}s")
    return 0


_COMMANDS = {
    "generate-dataset": cmd_generate_dataset,
    "run-workload": cmd_run_workload,
    "compare-policies": cmd_compare_policies,
    "journey": cmd_journey,
    "serve": cmd_serve,
    "loadgen": cmd_loadgen,
    "trace": cmd_trace,
}


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    handler = _COMMANDS[args.command]
    return handler(args)


if __name__ == "__main__":  # pragma: no cover - exercised via tests calling main()
    sys.exit(main())
