"""Sharded scatter-gather execution: dataset partitioning + merged serving.

Partition the dataset across N independent :class:`GraphCacheSystem` shards
(:class:`ShardRouter`), scatter every query's filter + verify work to all
shards in parallel, and merge the per-shard answers into one deterministic
report (:class:`ShardedGraphCacheSystem`).  :func:`make_system` dispatches on
``GCConfig.num_shards`` so callers (query server, CLI, workload runner) stay
agnostic of whether they hold a sharded or an unsharded engine.

Shards run on one of two execution backends (``GCConfig.shard_backend``):
``"thread"`` hosts each shard in-process on the scatter pool, ``"process"``
spawns one worker *process* per shard (:class:`ProcessShardBackend` spawns
them, a :class:`ProcessShardClient` per shard owns one, and
:mod:`repro.sharding.worker` runs in it) speaking v2 envelopes over loopback — same
scatter-gather semantics, no shared GIL for CPU-bound verification.
"""

from repro.runtime.config import SCATTER_MODES, SHARD_BACKENDS
from repro.sharding.planner import PLAN_STAGE, ScatterPlan, ScatterPlanner, ScatterStats
from repro.sharding.process_backend import ProcessShardBackend, ProcessShardClient
from repro.sharding.router import ShardRouter, stable_graph_id_hash
from repro.sharding.summary import ShardSummary
from repro.sharding.system import (
    MERGE_STAGE,
    ShardedGraphCacheSystem,
    make_system,
    shard_snapshot_path,
)

__all__ = [
    "SCATTER_MODES",
    "SHARD_BACKENDS",
    "ProcessShardBackend",
    "ProcessShardClient",
    "ShardRouter",
    "ShardSummary",
    "ShardedGraphCacheSystem",
    "ScatterPlan",
    "ScatterPlanner",
    "ScatterStats",
    "MERGE_STAGE",
    "PLAN_STAGE",
    "make_system",
    "shard_snapshot_path",
    "stable_graph_id_hash",
]
