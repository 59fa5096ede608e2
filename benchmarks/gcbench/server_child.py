"""The ``served_light`` server process: a default QueryServer, launched by gcbench.

Protocol with the parent (``sut.ServedSystem``), one JSON object per line on
stdout: first ``{"port", "dataset_s"}`` once the server accepts requests, and
after the parent writes ``stop`` (or closes stdin — so a dead parent never
leaves this process behind) a final report with the engine's accessor
counters and, in a traced run, this process's spans.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from gcbench import tracer, workloads  # noqa: E402
from gcbench.sut import engine_counters  # noqa: E402
from repro.server import QueryServer  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--dataset", required=True)
    parser.add_argument("--scale", type=float, default=1.0)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--server-options", default="{}",
                        help="JSON keyword overrides for QueryServer (test hook)")
    args = parser.parse_args()

    begun = time.perf_counter()
    data = workloads.dataset(args.dataset, args.scale)
    dataset_s = time.perf_counter() - begun

    recorder, uninstall = None, None
    if args.trace:
        recorder = tracer.SpanRecorder(prefix="s")
        uninstall = tracer.install(recorder)
        setup = recorder.open("bench.setup", "bench", "setup", None)
    server = QueryServer(data, **json.loads(args.server_options))
    server.start()
    if recorder is not None:
        recorder.close(setup)
    try:
        print(json.dumps({"port": server.port, "dataset_s": dataset_s}), flush=True)
        for line in sys.stdin:
            if line.strip() == "stop":
                break
        final = engine_counters(server.system)
        if recorder is not None:
            final["spans"] = [span.to_dict() for span in recorder.spans()]
    finally:
        server.stop()
        if uninstall is not None:
            uninstall()
    print(json.dumps(final), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
