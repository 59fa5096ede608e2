#!/usr/bin/env python3
"""Query serving through the GraphService SDK: serve, replay, record.

The serving tour of the library, on the unified service API:

1. start a :class:`QueryServer` over a dataset (ephemeral port, request
   batching, bounded admission queue, cache snapshot for warm restarts);
2. connect a :class:`RemoteGraphService` (typed envelopes over one
   keep-alive connection per thread) and replay a zipfian mixed trace at a
   target QPS — while the server records the live request stream as a
   replayable trace;
3. read the typed ``/metrics`` and raw ``/stats`` snapshots any monitoring
   system could scrape;
4. restart the server from the snapshot and replay the *recorded* trace
   against it — the "replay production traffic against a candidate
   configuration" loop in four lines.

Run with:  python examples/query_serving.py
"""

from __future__ import annotations

import tempfile
from pathlib import Path

from repro import GCConfig, molecule_dataset
from repro.api import QueryRequest, RemoteGraphService
from repro.dashboard import format_table
from repro.server import QueryServer
from repro.workload import generate_trace, replay_trace


def main() -> None:
    dataset = molecule_dataset(60, min_vertices=10, max_vertices=25, rng=7)
    trace = generate_trace(dataset, 120, skew="zipfian", query_type="mixed", seed=9)
    config = GCConfig(cache_capacity=30, window_size=5, replacement_policy="HD")
    snapshot = Path(tempfile.mkdtemp()) / "cache-snapshot.json"

    # 1–2. serve and replay: 4-deep batches, open-loop at 150 QPS, recording on
    with QueryServer(dataset, config, max_batch_size=4,
                     snapshot_path=snapshot) as server:
        print(f"serving at {server.address}\n")
        client = RemoteGraphService.for_server(server)
        client.start_recording(name="live-traffic")
        result = replay_trace(client, trace, target_qps=150.0, num_threads=4)
        recorded = client.stop_recording()
        print(format_table([result.summary()]))

        # 3. the observability surface — typed metrics, raw serving stats
        metrics = client.metrics()
        aggregate = metrics.aggregate
        print(f"\nhit ratio        : {aggregate['hit_ratio']:.2f}")
        print(f"tests saved      : "
              f"{aggregate['total_baseline_tests'] - aggregate['total_dataset_tests']}")
        print(f"cache population : {metrics.cache['population']}")
        batcher = client.stats()["batcher"]
        print(f"batches          : {batcher['batches']} "
              f"(mean size {batcher['mean_batch_size']})")
        print(f"recorded trace   : {len(recorded)} queries ({recorded.name})")

    # 4. a restarted server starts warm from the snapshot; the recorded
    #    trace replays against it through the same client surface
    with QueryServer(dataset, config, snapshot_path=snapshot) as restarted:
        print(f"\nrestarted warm with {restarted.restored_entries} cached entries")
        client = RemoteGraphService.for_server(restarted)
        response = client.run(QueryRequest(graph=trace[0].graph.copy(),
                                           query_type=trace[0].query_type))
        print(f"first query answered {len(response.answer)} graphs "
              f"(hits: {response.hits})")
        replayed = replay_trace(client, recorded, num_threads=4)
        print(f"recorded trace replayed: {replayed.served}/{len(recorded)} served "
              f"at {replayed.achieved_qps:.0f} QPS")


if __name__ == "__main__":
    main()
