"""Smoke test of gcbench itself (tiny sizes; collected by the tier-1 run).

Locks what later issues rely on: inputs are a pure function of the seed,
every metric ``BENCHMARK.json`` names is printed with a finite value and its
unit, the traced run's spans form proper trees with one trace id per
operation, answers agree wherever they must, a refused request (a forced 429)
is counted as a failed operation rather than lost, and no process — not even
a zombie — outlives a run.
"""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from gcbench import layers, loops, sut, tracer, workloads
from gcbench.speed import SpeedLog

HERE = Path(__file__).resolve().parent
REPO = HERE.parents[1]
CONTRACT = json.loads((REPO / "BENCHMARK.json").read_text(encoding="utf-8"))

#: Tiny but complete: every workload, untraced (one repetition) and traced,
#: a few dozen operations each over a tenth of the data.
SMOKE = ["--seed", "1", "--seconds", "0.4", "--scale", "0.1", "--reps", "1"]


def test_inputs_are_a_function_of_the_seed():
    spec = workloads.WORKLOADS["engine_hot"]
    data = workloads.dataset(spec.dataset, scale=0.05)
    first = workloads.build_trace(spec, data, seed=1, seconds=0.3)
    again = workloads.build_trace(spec, data, seed=1, seconds=0.3)
    other = workloads.build_trace(spec, data, seed=2, seconds=0.3)
    assert first.sha256 == again.sha256
    assert first.sha256 != other.sha256
    # another seed presents the same questions differently: same sizes and
    # semantics in the same order, different bytes
    assert [(q.query_type, q.num_vertices, q.num_edges) for q in first.timed] == \
           [(q.query_type, q.num_vertices, q.num_edges) for q in other.timed]


def test_contract_file_matches_the_metric_tables():
    assert CONTRACT["command"] == ["python3", "benchmarks/gcbench/run.py"]
    assert CONTRACT["paths"] == ["benchmarks/gcbench"]
    assert [(w["name"], w["why"]) for w in CONTRACT["workloads"]] \
        == [(spec.name, spec.why) for spec in workloads.WORKLOADS.values()]
    for spec in workloads.WORKLOADS.values():  # the op counts each `why` records
        assert f"3x{spec.num_ops(CONTRACT['run_seconds'])}" in spec.why
    assert workloads.REPS == 3
    assert [(m["name"], m["unit"], m["better"], m["bound"]) for m in CONTRACT["end_to_end"]] \
        == [tuple(row) for row in layers.END_TO_END]
    assert [(m["name"], m["unit"], m["better"]) for m in CONTRACT["per_layer"]] \
        == [tuple(row) for row in layers.PER_LAYER]


@pytest.fixture(scope="module")
def suite(tmp_path_factory):
    """One tiny run of the whole suite (all workloads, untraced + traced)."""
    out = tmp_path_factory.mktemp("gcbench")
    # in a session of its own, so that what it leaves behind can be found
    run = subprocess.Popen(
        [sys.executable, str(HERE / "run.py"), *SMOKE,
         "--out", str(out / "results.json"), "--trace-out", str(out / "spans.jsonl")],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, start_new_session=True,
    )
    stdout, stderr = run.communicate(timeout=120)
    left_behind = [pid for pid in os.listdir("/proc")
                   if pid.isdigit() and _session_of(pid) == run.pid]
    assert run.returncode == 0, stdout[-3000:] + stderr[-3000:]
    assert left_behind == [], "processes (or zombies) outlived the benchmark"
    return out, stdout, json.loads((out / "results.json").read_text())


def _session_of(pid: str) -> int | None:
    try:
        stat = (Path("/proc") / pid / "stat").read_text()
    except OSError:  # ended meanwhile
        return None
    return int(stat[stat.rindex(")") + 2:].split()[3])


def test_every_named_metric_is_printed_with_a_finite_value_and_unit(suite):
    _, stdout, results = suite
    summary = json.loads(stdout.strip().splitlines()[-1])
    assert summary["correct"] is True and summary["failed"] == 0
    assert summary["attempted"] >= 1
    for workload in CONTRACT["workloads"]:
        for traced, section in ((False, "end_to_end"), (True, "per_layer")):
            record = next(r for r in results
                          if r["workload"] == workload["name"] and r["traced"] is traced)
            assert set(record["metrics"]) == {m["name"] for m in CONTRACT[section]}
            for metric in CONTRACT[section]:
                reported = record["metrics"][metric["name"]]
                assert reported["unit"] == metric["unit"]
                assert math.isfinite(reported["value"]), metric["name"]
                assert f"{metric['name']} " in stdout
            if not traced:
                assert all(value["value"] > 0 for value in record["metrics"].values())


def test_layers_absent_from_a_workload_report_zero(suite):
    _, _, results = suite
    for record in (r for r in results if r["traced"]):
        sharded = record["workload"] == "sharded_process"
        fanout = record["metrics"]["sharding.mean_fanout"]["value"]
        assert (fanout > 0) is sharded
        served = record["workload"] == "served_light"
        assert (record["metrics"]["server.batches"]["value"] > 0) is served
        assert "obs.bench_trace_overhead_share" in record["metrics"]


def test_answers_agree_where_they_must(suite):
    _, _, results = suite
    untraced = {r["workload"]: r for r in results if not r["traced"]}
    traced = {r["workload"]: r for r in results if r["traced"]}
    for name in untraced:
        assert untraced[name]["answers_sha256"] == traced[name]["answers_sha256"]
        assert untraced[name]["inputs_sha256"] == traced[name]["inputs_sha256"]
    assert untraced["engine_cold"]["inputs_sha256"] == untraced["sharded_process"]["inputs_sha256"]
    assert untraced["engine_cold"]["answers_sha256"] == untraced["sharded_process"]["answers_sha256"]


def test_spans_are_well_formed(suite):
    out, _, results = suite
    for name in workloads.WORKLOADS:
        path = out / f"spans.{name}.jsonl"
        spans = [tracer.Span.from_dict(json.loads(line))
                 for line in path.read_text().splitlines()]
        assert spans, name
        assert tracer.malformed(spans) == [], name
        # one trace id per timed operation: exactly one root, named client.op
        record = next(r for r in results if r["workload"] == name and r["traced"])
        roots: dict = {}
        for span in spans:
            if isinstance(span.trace_id, int) and span.parent_id is None:
                roots.setdefault(span.trace_id, []).append(span.name)
        assert sorted(roots) == list(range(record["operations"])), name
        assert all(names == ["client.op"] for names in roots.values()), name
        layers_seen = {span.layer for span in spans}
        assert {"client", "runtime", "index", "cache", "methods"} <= layers_seen, name
    served = [tracer.Span.from_dict(json.loads(line))
              for line in (out / "spans.served_light.jsonl").read_text().splitlines()]
    # the trace crosses the HTTP hop: server-side spans hang under client ones
    assert any(s.span_id.startswith("s") and (s.parent_id or "").startswith("b")
               for s in served)


def test_a_forced_429_is_a_failed_operation():
    spec = workloads.WORKLOADS["served_light"]
    data = workloads.dataset(spec.dataset, scale=0.25)
    trace = workloads.build_trace(spec, data, seed=1, seconds=1.5)
    # one queue slot, batches of one, eight impatient clients: most requests
    # find the queue full and are refused with 429
    system = sut.start_system(
        spec, data, scale=0.25,
        server_options={"max_queue_depth": 1, "max_batch_size": 1},
    )
    try:
        ops, started, ended = loops.run_loop(system, trace.timed, clients=8, speed=SpeedLog())
    finally:
        final = system.close()
    assert final["cache_entries"] >= 0
    refused = [op for op in ops if op.error == "AdmissionRejectedError"]
    assert refused, {op.error for op in ops}
    rep = layers.Rep(ops=ops, attempted=len(trace.timed), started_s=started, ended_s=ended,
                     setup_s=0.0, cpu_s=0.0, peak_rss_mb=0.0)
    assert rep.failures == len(trace.timed) - len(rep.ok_ops) >= len(refused)
    assert all(op.response is None for op in refused)
    assert system.process.poll() is not None  # the server child was reaped
