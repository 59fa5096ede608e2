"""The four gcbench workloads: fixed data, fixed query sequence, seeded presentation.

What is fixed and what the seed drives
--------------------------------------
The datasets, the pattern pools and the *sequence* of queries of each
workload are generated from constants (``DATA_SEED``).  ``--seed`` drives how
every query graph is *presented*: its vertices are renumbered and its vertex
and edge lists reordered by a seeded shuffle, so each seed hands the engine
different bytes (and a different search order to the matcher) for the same
questions.  The reason is measured, not aesthetic — the engine's cache state
is path-dependent to a degree no bound could absorb:

* re-drawing the query population per seed moved ``qps`` 152–234 q/s and
  ``tests_per_query`` 27–51 between six seeds (per-query cost is heavy-tailed:
  a 5-vertex subgraph pattern has ~270 candidates, a 12-vertex one ~4);
* merely *reordering* one fixed bag of queries still moved
  ``tests_per_query`` 18–42 (IQR 42 % of the median) and the hit ratio of the
  cold workload 0.20–0.74, because HD replacement never decays an entry's
  accumulated savings, so whichever tiny "universal" patterns are admitted
  first stay resident for the rest of the run.

With the sequence fixed, every count metric repeats (``tests_per_query`` to
the second decimal) and what varies between seeds is what the verifier and
the codecs do with differently presented inputs.

``--seconds`` sizes the run: each of the ``REPS`` repetitions issues
``ops_per_second x seconds / REPS`` operations (the rate is chosen so the seed
commit needs about ``seconds`` of timed wall in total), so two commits always
answer identical inputs and every count metric is comparable between them.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass, field

from repro.graph import Graph, molecule_dataset
from repro.query_model import Query
from repro.runtime import GCConfig
from repro.workload import WorkloadGenerator, WorkloadMix

#: Seeds every piece of fixed data (year of the paper).
DATA_SEED = 2018

#: Latency limit (ms) behind ``client.slo_miss_share``; a failed operation
#: misses it by definition.
LATENCY_LIMIT_MS = 25.0

#: Repetitions of the timed phase per run, each on a freshly built system
#: answering identical inputs.  Every time metric is computed per repetition
#: and reported as the median of the repetitions, so one repetition that met
#: a slow spell of the host does not decide the run.
REPS = 3

#: Stand-alone cold constructions (build, first answer, close) per untraced
#: run; with the repetitions' own they are the sample ``setup_s`` is the
#: median of (5 at the default ``REPS``).
EXTRA_SETUPS = 2

#: Every ``CHECK_EVERY``-th operation is re-answered by the reference system.
CHECK_EVERY = 25

DATASET_SIZES = {"D2000": 2000, "D200": 200}


def dataset(name: str, scale: float = 1.0) -> list:
    """``D2000`` / ``D200``: molecule graphs of 4–35 vertices, fixed seed.

    ``scale`` < 1 shrinks the graph count (smoke tests only).
    """
    count = max(20, int(DATASET_SIZES[name] * scale))
    return molecule_dataset(count, min_vertices=4, max_vertices=35, rng=DATA_SEED)


def _mix(query_type: str, sizes: tuple[int, int], pool: int, alpha: float,
         repeat: float, shrink: float, extend: float, fresh: float) -> WorkloadMix:
    return WorkloadMix(
        repeat_fraction=repeat, shrink_fraction=shrink, extend_fraction=extend,
        fresh_fraction=fresh, zipf_alpha=alpha, pool_size=pool,
        min_pattern_vertices=sizes[0], max_pattern_vertices=sizes[1],
        # derived queries differ from their pool pattern by one vertex: with
        # the generator's default of three, shrunk subgraph patterns of 3-5
        # vertices (hundreds of candidates each, barely prunable) are 12 % of
        # the queries and 88 % of all sub-iso tests, on either workload
        resize_vertices=1,
        query_type=query_type,
    )


def _hot_parts() -> tuple[WorkloadMix, ...]:
    recipe = dict(pool=20, alpha=1.2, repeat=.4, shrink=.25, extend=.25, fresh=.1)
    return (_mix("subgraph", (6, 14), **recipe),
            _mix("supergraph", (12, 22), **recipe))


def _cold_parts() -> tuple[WorkloadMix, ...]:
    return (_mix("subgraph", (8, 16), pool=200, alpha=0.0,
                 repeat=.1, shrink=.15, extend=.15, fresh=.6),)


@dataclass(frozen=True)
class WorkloadSpec:
    """One workload: inputs, the system it runs on and how load is applied."""

    name: str
    why: str
    dataset: str
    #: One query bag per part, interleaved round-robin into the trace.
    parts: tuple = field(repr=False)
    #: ``local`` (LocalGraphService in this process), ``served`` (QueryServer
    #: child process + RemoteGraphService) or ``sharded`` (process shards).
    system: str = "local"
    #: ``closed`` (each client waits for its reply) or ``open`` (fixed rate).
    loop: str = "closed"
    clients: int = 1
    #: Operations issued per second of ``--seconds`` (open loop: the rate).
    ops_per_second: float = 100.0
    warmup_ops: int = 200
    #: GCConfig fields that differ from the defaults (everything else is the
    #: shipped default, so a better default is a change the benchmark sees).
    config: dict = field(default_factory=dict)

    def gc_config(self) -> GCConfig:
        return GCConfig(**self.config)

    def num_ops(self, seconds: float) -> int:
        """Timed operations of one repetition."""
        return max(len(self.parts) * 4, int(round(self.ops_per_second * seconds / REPS)))


WORKLOADS: dict[str, WorkloadSpec] = {
    spec.name: spec
    for spec in (
        WorkloadSpec(
            name="engine_hot",
            why="3x1680 closed-loop queries, 1 client, D2000; working set fits the cache "
                "(zipf, pool 20+20, sub+super): cache probe, index filter and admission "
                "dominate; where cache/index gains show",
            dataset="D2000", parts=_hot_parts(), ops_per_second=280.0, warmup_ops=200,
        ),
        WorkloadSpec(
            name="engine_cold",
            why="3x780 closed-loop subgraph queries, 1 client, D2000; working set 4x the cache "
                "(uniform, pool 200, 60% fresh): verification dominates, probes mostly miss; "
                "where isomorphism/methods gains show",
            dataset="D2000", parts=_cold_parts(), ops_per_second=130.0, warmup_ops=200,
        ),
        WorkloadSpec(
            name="served_light",
            why="3x720 requests, open loop 120 req/s on 4 connections to a QueryServer child "
                "over D200: the engine is ~1.6 ms of a ~7 ms request, so batcher, envelope "
                "codec and HTTP dominate",
            dataset="D200", parts=_hot_parts(), system="served", loop="open",
            # 4 keep-alive connections: with 2, one request in eight found
            # both busy and was sent >1 ms late (a generator limit, not load)
            clients=4, ops_per_second=120.0, warmup_ops=200,
        ),
        WorkloadSpec(
            name="sharded_process",
            why="engine_cold's exact trace (3x780, 1 client) on 2 process shards with "
                "short-circuit scatter: every difference from engine_cold is the sharding layer",
            dataset="D2000", parts=_cold_parts(), system="sharded",
            ops_per_second=130.0, warmup_ops=200,
            config=dict(num_shards=2, shard_backend="process", scatter_mode="short-circuit"),
        ),
    )
}


@dataclass
class Trace:
    """The inputs of one repetition: warm-up operations, then the timed ones."""

    warmup: list[Query]
    timed: list[Query]
    sha256: str


def _sequence(data: list, mix: WorkloadMix, part: int, count: int, stream: int) -> list[Query]:
    """``count`` queries of one part, drawn from that part's fixed pool."""
    pool = WorkloadGenerator(data, rng=DATA_SEED + 10 * part).build_pattern_pool(mix)
    generator = WorkloadGenerator(data, rng=DATA_SEED + 10 * part + stream)
    return list(generator.generate(count, mix, pattern_pool=pool).queries)


def _presented(query: Query, rng: random.Random) -> Query:
    """The same pattern with vertices renumbered and both lists reordered."""
    graph = query.graph
    order = graph.vertices()
    rng.shuffle(order)
    renamed = {old: new for new, old in enumerate(order)}
    shown = Graph()
    for old in order:
        shown.add_vertex(renamed[old], graph.label(old))
    edges = graph.edges()
    rng.shuffle(edges)
    for u, v in edges:
        shown.add_edge(renamed[u], renamed[v], graph.edge_label(u, v))
    return Query(graph=shown, query_type=query.query_type, metadata=dict(query.metadata))


def build_trace(spec: WorkloadSpec, data: list, seed: int, seconds: float) -> Trace:
    """The warm-up and timed operations of one repetition of ``spec``."""
    parts = len(spec.parts)
    timed_ops = spec.num_ops(seconds)
    # a run shrunk for a smoke test does not warm up longer than it measures
    counts = (-(-min(spec.warmup_ops, timed_ops) // parts), -(-timed_ops // parts))
    presenter = random.Random(seed)
    phases = []
    for stream, count in enumerate(counts, start=1):
        sequences = [_sequence(data, mix, part, count, stream)
                     for part, mix in enumerate(spec.parts)]
        # parts alternate: sub, super, sub, super, ...
        phases.append([_presented(query, presenter)
                       for group in zip(*sequences) for query in group])
    warmup, timed = phases
    digest = hashlib.sha256()
    for query in warmup + timed:
        digest.update(json.dumps(
            [query.query_type.value, query.graph.to_dict()], sort_keys=True
        ).encode("utf-8"))
    return Trace(warmup=warmup, timed=timed, sha256=digest.hexdigest())


def answers_sha256(answers: list) -> str:
    """Digest over every operation's answer set, in trace order.

    A failed operation contributes ``null``, so a hash only ever matches
    another run's when both answered everything identically.
    """
    digest = hashlib.sha256()
    for answer in answers:
        digest.update(json.dumps(
            None if answer is None else sorted(answer, key=repr)
        ).encode("utf-8"))
    return digest.hexdigest()
