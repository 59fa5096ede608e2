"""The benchmark proper: repetitions, answer check, the three run modes.

``run.py`` is the entry point (it fixes the hash seed and the import path,
then calls :func:`main`); see its docstring for the command forms.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import signal
import statistics
import time
from pathlib import Path

from repro.api import LocalGraphService
from repro.runtime import GCConfig

from gcbench import layers, loops, sut, tracer, workloads
from gcbench.speed import SpeedLog

#: Seconds one workload run may take before the watchdog aborts it (the
#: contract allows 180; a wedged child must not outlive that).
WATCHDOG_S = 170


def _terminate(signum, frame) -> None:
    # SIGTERM / watchdog: unwind through the finally blocks that reap children
    raise SystemExit(128 + signum)


# ---------------------------------------------------------------------- #
# one repetition
# ---------------------------------------------------------------------- #
def cold_start(spec, data, trace, args, speed: SpeedLog, recorder=None):
    """Build the system cold and have it answer one query.

    Returns ``(system, setup_s, setup_speed, first_answer)``.  ``setup_s``
    runs from before construction to the first answer, leaves out what a
    child spent generating the benchmark's dataset, and is in reference
    seconds: ``setup_speed`` is the factor, from kernel samples taken right
    before and right after.
    """
    gc.collect()
    speed.burst()
    begun = time.perf_counter()
    span = recorder.open("bench.setup", "bench", "setup", None) if recorder else None
    system = sut.start_system(spec, data, scale=args.scale, traced=recorder is not None,
                              server_options=args.server_options)
    try:
        first = system.run(trace.warmup[0])
    except BaseException:
        system.abort()
        raise
    built = time.perf_counter()
    if span is not None:
        recorder.close(span)
    speed.burst()
    setup_speed = speed.factor(begun, built)
    return system, (built - begun - system.own_seconds) * setup_speed, setup_speed, first.answer


def measure_setup(spec, data, trace, args) -> tuple[float, frozenset]:
    """One stand-alone cold construction: ``(setup_s, first_answer)``."""
    system, setup_s, _, answer = cold_start(spec, data, trace, args, SpeedLog())
    system.close()
    return setup_s, answer


def measure_rep(spec, data, trace, args, traced: bool = False):
    """Build a fresh system, warm it up, run the timed operations once."""
    speed = SpeedLog()
    recorder = uninstall = None
    if traced:
        recorder = tracer.SpanRecorder(prefix="b")
        uninstall = tracer.install(recorder)
    system = None
    try:
        system, setup_s, setup_speed, first_answer = cold_start(
            spec, data, trace, args, speed, recorder)
        warm_ops, _, _ = loops.run_loop(system, trace.warmup[1:], clients=1, speed=speed,
                                        recorder=recorder, trace_prefix="w")
        http_floor_ms = system.health_round_trip_ms() if spec.system == "served" else 0.0
        pids = system.engine_pids()
        # accessor snapshots feed the per-layer metrics only, and cost a
        # second per call on process shards (every worker is asked)
        counters_before = system.counters() if traced else {}
        cpu_before = sum(sut.cpu_seconds(pid) for pid in pids)
        speed.take_spent()
        ops, started, ended = loops.run_loop(
            system, trace.timed, clients=spec.clients, speed=speed,
            rate=spec.ops_per_second if spec.loop == "open" else None,
            recorder=recorder, give_up_after_s=WATCHDOG_S / 2,
        )
        sampling_s = speed.take_spent()
        cpu_s = sum(sut.cpu_seconds(pid) for pid in pids) - cpu_before
        if os.getpid() in pids:  # the kernel was timed on this process's CPU
            cpu_s -= sampling_s
        rss_mb = sum(sut.peak_rss_mb(pid) for pid in pids)
        counters_after = system.counters() if traced else {}
        final, system = system.close(), None
    finally:
        if system is not None:  # something failed: reap children, skip the niceties
            system.abort()
        if uninstall is not None:
            uninstall()
    spans = recorder.spans() if recorder else []
    spans += [tracer.Span.from_dict(payload) for payload in final.pop("spans", [])]
    counters_after.update(final)
    return layers.Rep(
        ops=ops, attempted=len(trace.timed), started_s=started, ended_s=ended,
        setup_s=setup_s, cpu_s=cpu_s, peak_rss_mb=rss_mb,
        speed=speed, setup_speed=setup_speed,
        # one closed-loop client times the kernel in series with its
        # operations; an open loop's senders do it while they wait
        sampling_s=sampling_s if spec.loop == "closed" and spec.clients == 1 else 0.0,
        counters_before=counters_before, counters_after=counters_after,
        spans=spans, http_floor_ms=http_floor_ms, first_answer=first_answer,
        warmup_failures=sum(1 for op in warm_ops if op.error is not None),
    )


def check_answers(data, trace, reps, first_answers) -> int:
    """Wrong answers, judged by an uncached unsharded reference system.

    Outside every timed phase: the first answer of every cold construction,
    every ``CHECK_EVERY``-th timed answer of the first repetition, and — for
    free — that all repetitions answered every operation identically.
    """
    wrong = 0
    with LocalGraphService(data, GCConfig(cache_enabled=False)) as reference:
        expected_first = reference.run(trace.warmup[0]).answer
        wrong += sum(1 for answer in first_answers if answer != expected_first)
        answers = reps[0].answers()
        for index in range(0, len(trace.timed), workloads.CHECK_EVERY):
            if answers[index] is not None:
                wrong += answers[index] != reference.run(trace.timed[index]).answer
    for rep in reps[1:]:
        wrong += sum(1 for mine, theirs in zip(rep.answers(), answers)
                     if mine is not None and theirs is not None and mine != theirs)
    return wrong


# ---------------------------------------------------------------------- #
# one workload
# ---------------------------------------------------------------------- #
def header(spec, args, trace) -> None:
    print(f"# gcbench workload={spec.name} seed={args.seed} seconds={args.seconds:g} "
          f"nproc={os.cpu_count()} python={platform.python_version()} "
          f"load1={os.getloadavg()[0]:.2f}")
    print(f"# {spec.system} system over {spec.dataset}, {spec.loop} loop, "
          f"{spec.clients} client(s), {len(trace.timed)} timed + {len(trace.warmup)} "
          f"warm-up operations per repetition")
    print(f"inputs_sha256={trace.sha256}")


def run_workload(spec, args, traced: bool) -> dict:
    """All repetitions of one workload, checked; returns the result record."""
    signal.alarm(WATCHDOG_S)
    try:
        data = workloads.dataset(spec.dataset, args.scale)
        trace = workloads.build_trace(spec, data, args.seed, args.seconds)
        header(spec, args, trace)
        # a traced run is one untraced repetition (the overhead reference)
        # and one traced; an untraced run is --reps repetitions plus the
        # stand-alone cold constructions that widen the set-up sample
        plan = [False, True] if traced else [False] * args.reps
        extra = [] if traced else [
            measure_setup(spec, data, trace, args) for _ in range(workloads.EXTRA_SETUPS)
        ]
        reps = []
        for number, with_tracer in enumerate(plan):
            rep = measure_rep(spec, data, trace, args, with_tracer)
            reps.append(rep)
            print(f"rep {number} traced={int(with_tracer)} ops={len(rep.ok_ops)}/{rep.attempted} "
                  f"wall_s={rep.wall_s:.3f} raw_qps={rep.raw_qps:.2f} "
                  f"machine_speed={rep.machine_speed:.3f} qps={rep.qps(spec.loop):.2f} "
                  f"p50_ms={rep.latency_ms(0.5):.3f} p95_ms={rep.latency_ms(0.95):.3f} "
                  f"setup_s={rep.setup_s:.3f} cpu_s={rep.cpu_s:.3f} "
                  f"rss_mb={rep.peak_rss_mb:.1f}")
        setup_samples = [rep.setup_s for rep in reps] + [seconds for seconds, _ in extra]
        wrong = check_answers(data, trace, reps, [rep.first_answer for rep in reps]
                              + [answer for _, answer in extra])
    finally:
        signal.alarm(0)
    failed = sum(rep.failures for rep in reps)
    answers_hash = workloads.answers_sha256(reps[0].answers())
    print(f"answers_sha256={answers_hash}")
    if traced:
        metrics = layers.per_layer(spec, reps[1], reps[0], trace.timed)
        units = {name: unit for name, unit, _ in layers.PER_LAYER}
        shares = layers.stage_shares(reps[1].spans)
        print("stage shares: " + " ".join(f"{k}={v:.3f}" for k, v in shares.items()))
        if args.trace_out:
            target = Path(args.trace_out)
            if args.workload is None:  # the suite writes one file per workload
                target = target.with_name(f"{target.stem}.{spec.name}{target.suffix}")
            tracer.write_spans(target, reps[1].spans, reps[1].started_s)
            print(f"# {len(reps[1].spans)} spans written to {target}")
    else:
        metrics = layers.end_to_end(spec, reps, setup_samples)
        units = {name: unit for name, unit, _, _ in layers.END_TO_END}
        print(f"# medians of {len(reps)} repetitions; latency samples: "
              f"{len(reps[0].ok_ops)} operations per repetition; "
              f"setup_s: median of {len(setup_samples)} cold constructions "
              f"({' '.join(f'{seconds:.3f}' for seconds in setup_samples)})")
        if spec.loop == "open" and metrics["qps"] < 0.98 * spec.ops_per_second:
            print(f"# WARNING growing backlog: achieved {metrics['qps']:.1f} req/s "
                  f"of {spec.ops_per_second:g} offered")
    for name, value in metrics.items():
        note = "  (absent)" if traced and layers.absent(spec, name) else ""
        print(f"{name:34s} {value:14.6f} {units[name]}{note}")
    attempted = sum(rep.attempted + len(trace.warmup) for rep in reps) + len(extra)
    return {
        "workload": spec.name, "seed": args.seed, "traced": traced,
        "operations": len(trace.timed),
        "correct": wrong == 0, "attempted": attempted, "failed": failed + wrong,
        "inputs_sha256": trace.sha256, "answers_sha256": answers_hash,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }


def contract_line(result: dict) -> str:
    return json.dumps({key: result[key] for key in ("correct", "attempted", "failed", "metrics")})


# ---------------------------------------------------------------------- #
# suites
# ---------------------------------------------------------------------- #
def run_suite(args) -> tuple[list[dict], bool]:
    """Every workload untraced, then traced; hashes that must agree compared."""
    results, agree = [], True
    for spec in workloads.WORKLOADS.values():
        untraced = run_workload(spec, args, traced=False)
        print()
        traced = run_workload(spec, args, traced=True)
        print()
        results += [untraced, traced]
        if untraced["answers_sha256"] != traced["answers_sha256"]:
            agree = False
            print(f"# MISMATCH {spec.name}: traced and untraced answers differ")
    by_name = {result["workload"]: result for result in results if not result["traced"]}
    if by_name["engine_cold"]["answers_sha256"] != by_name["sharded_process"]["answers_sha256"]:
        agree = False
        print("# MISMATCH engine_cold and sharded_process answered the same trace differently")
    return results, agree


def run_repeats(args) -> list[dict]:
    """The untraced suite ``--repeat`` times on consecutive seeds; spreads."""
    results = []
    for offset in range(args.repeat):
        step = argparse.Namespace(**{**vars(args), "seed": args.seed + offset})
        for spec in workloads.WORKLOADS.values():
            results.append(run_workload(spec, step, traced=False))
            print()
    print(f"# spread over seeds {args.seed}..{args.seed + args.repeat - 1} "
          "(quartiles as statistics.quantiles(n=4))")
    print(f"{'workload':16s} {'metric':16s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'iqr/median':>10s}")
    for spec in workloads.WORKLOADS.values():
        for name, _, _, _ in layers.END_TO_END:
            values = [r["metrics"][name]["value"] for r in results if r["workload"] == spec.name]
            q1, median, q3 = statistics.quantiles(values, n=4)
            print(f"{spec.name:16s} {name:16s} {median:12.4f} {q1:12.4f} {q3:12.4f} "
                  f"{(q3 - q1) / median:10.4f}")
    return results


def main(argv: list[str], description: str) -> int:
    parser = argparse.ArgumentParser(description=description,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", help="run one workload (default: all four)")
    parser.add_argument("--seed", type=int, default=1,
                        help="how every query graph is presented (vertex/edge order)")
    parser.add_argument("--seconds", type=float, default=18.0,
                        help="sizes the run: timed wall seconds the seed commit needs")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="with --workload: 1 = traced run, per-layer metrics")
    parser.add_argument("--repeat", type=int, default=0,
                        help="run the untraced suite N (>= 2) times on consecutive seeds")
    parser.add_argument("--reps", type=int, default=None,
                        help="repetitions of an untraced run (default 3; smoke tests use 1)")
    parser.add_argument("--scale", type=float, default=1.0,
                        help="dataset size factor (smoke tests use < 1)")
    parser.add_argument("--server-options", type=json.loads, default=None,
                        help="JSON QueryServer keyword overrides (test hook, e.g. to force 429s)")
    parser.add_argument("--trace-out", help="write the traced repetition's spans here (JSONL)")
    parser.add_argument("--out", help="also write the full result records here (JSON)")
    args = parser.parse_args(argv)

    if args.reps is None:
        args.reps = workloads.REPS
    if args.reps < 1:
        parser.error("--reps must be at least 1")
    if args.repeat == 1:
        parser.error("--repeat needs at least 2 runs to have a spread")
    if args.workload is not None and args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(workloads.WORKLOADS)}")
    signal.signal(signal.SIGTERM, _terminate)
    signal.signal(signal.SIGALRM, _terminate)

    agree = True
    if args.workload is not None:
        results = [run_workload(workloads.WORKLOADS[args.workload], args, bool(args.trace))]
    elif args.repeat:
        results = run_repeats(args)
    else:
        results, agree = run_suite(args)
    if args.out:
        Path(args.out).write_text(json.dumps(results, indent=1), encoding="utf-8")
    correct = agree and all(result["correct"] for result in results)
    if args.workload is not None:
        print(contract_line(results[0]))
    else:  # per-run metrics are above (and in --out); this line is the verdict
        print(json.dumps({
            "correct": correct, "runs": len(results),
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
        }))
    return 0 if correct else 1

