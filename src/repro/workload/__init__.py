"""Workload model, generators, runners and server trace replay."""

from repro.workload.generator import (
    STANDARD_MIXES,
    WorkloadGenerator,
    WorkloadMix,
    generate_standard_workloads,
)
from repro.workload.replay import (
    TRACE_SKEWS,
    ReplayEvent,
    ReplayResult,
    generate_trace,
    parse_priority_mix,
    replay_trace,
    with_serving_fields,
)
from repro.workload.runner import (
    WorkloadRunResult,
    compare_methods,
    compare_policies,
    run_with_policy,
    run_workload,
)
from repro.workload.workload import Workload

__all__ = [
    "Workload",
    "WorkloadMix",
    "WorkloadGenerator",
    "STANDARD_MIXES",
    "generate_standard_workloads",
    "WorkloadRunResult",
    "run_workload",
    "run_with_policy",
    "compare_policies",
    "compare_methods",
    "ReplayEvent",
    "ReplayResult",
    "replay_trace",
    "generate_trace",
    "parse_priority_mix",
    "with_serving_fields",
    "TRACE_SKEWS",
]
