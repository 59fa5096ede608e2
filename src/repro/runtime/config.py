"""Configuration of the GC runtime.

A single dataclass gathers every knob of the system — cache capacity, window
size, replacement policy, Method M, sharding — so experiments can be
described declaratively and reports can serialise the exact configuration
they ran under.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field

from repro.errors import ConfigurationError

# The valid values of the sharding knobs are defined here — not in the
# sharding package — so validating a config never imports the sharding
# machinery (which itself depends on this module).

#: How a sharded system scatters queries (:mod:`repro.sharding.planner`):
#: ``full`` sends every query to every shard; ``short-circuit`` consults the
#: per-shard feature/size summaries and skips shards that provably cannot
#: contribute answers (NeedleTail-style density/locality pruning).
SCATTER_MODES = ("full", "short-circuit")

#: How a sharded system hosts its shards (:mod:`repro.sharding.system`):
#: ``thread`` keeps every shard in-process (one scatter-pool slot each) — the
#: differential reference for the sharding layer, not a way to go faster: under
#: the GIL its shards take turns (README, "Concurrency model");
#: ``process`` spawns one OS worker process per shard, speaking the v2
#: envelope protocol over loopback sockets, so CPU-bound verification
#: escapes the GIL and scales with cores.
SHARD_BACKENDS = ("thread", "process")


@dataclass
class GCConfig:
    """Complete configuration of a :class:`~repro.runtime.system.GraphCacheSystem`."""

    # --- cache manager -------------------------------------------------
    cache_capacity: int = 50
    replacement_policy: str = "HD"
    window_size: int = 10
    #: Sub-case and super-case hits.  False degrades GC to a traditional
    #: exact-match-only result cache (the baseline the paper's contribution
    #: extends).
    semantic_hits: bool = True

    # --- method M -------------------------------------------------------
    method: str = "graphgrep-sx"
    method_options: dict = field(default_factory=dict)

    # --- sharding ---------------------------------------------------------
    #: Number of independent :class:`GraphCacheSystem` shards the dataset is
    #: partitioned across (1 = a single unsharded system).  Values above 1
    #: are honoured by :func:`repro.sharding.make_system`, the query server
    #: and the CLI, which build a
    #: :class:`~repro.sharding.system.ShardedGraphCacheSystem`.
    num_shards: int = 1
    #: Scatter strategy of a sharded system: ``full`` (every query to every
    #: shard) or ``short-circuit`` (the :class:`ScatterPlanner` skips shards
    #: whose :class:`ShardSummary` proves they cannot contribute answers).
    scatter_mode: str = "full"
    #: Shard hosting: ``thread`` (in-process shards on the scatter pool) or
    #: ``process`` (one spawned worker process per shard, v2 envelopes over
    #: loopback — CPU-bound verification scales past the GIL).
    shard_backend: str = "thread"

    # --- observability ----------------------------------------------------
    #: Fraction of served queries the server traces end to end (0.0 = off,
    #: 1.0 = every query).  Client-stamped trace contexts are always
    #: honoured regardless of the rate — sampling only governs server-side
    #: trace creation for untraced requests.
    trace_sample_rate: float = 0.0
    #: Completed traces at or above this duration are kept as slow-query
    #: exemplars (full span tree + scatter plan) and logged.
    slow_query_threshold_s: float = 1.0

    # --- baseline --------------------------------------------------------
    #: Whether the cache is enabled at all (False = pass-through baseline).
    cache_enabled: bool = True

    def validate(self) -> None:
        """Raise :class:`ConfigurationError` on inconsistent settings."""
        if self.cache_capacity < 1:
            raise ConfigurationError("cache_capacity must be at least 1")
        if self.window_size < 1:
            raise ConfigurationError("window_size must be at least 1")
        if self.window_size > self.cache_capacity:
            raise ConfigurationError(
                "window_size must not exceed cache_capacity "
                f"({self.window_size} > {self.cache_capacity})"
            )
        if self.num_shards < 1:
            raise ConfigurationError("num_shards must be at least 1")
        if self.scatter_mode not in SCATTER_MODES:
            raise ConfigurationError(
                f"unknown scatter_mode {self.scatter_mode!r}; "
                f"available: {', '.join(SCATTER_MODES)}"
            )
        if self.shard_backend not in SHARD_BACKENDS:
            raise ConfigurationError(
                f"unknown shard_backend {self.shard_backend!r}; "
                f"available: {', '.join(SHARD_BACKENDS)}"
            )
        if not (0.0 <= self.trace_sample_rate <= 1.0):
            raise ConfigurationError("trace_sample_rate must be between 0 and 1")
        if self.slow_query_threshold_s <= 0:
            raise ConfigurationError("slow_query_threshold_s must be positive")

    def to_dict(self) -> dict:
        """Serialise the configuration (for reports and experiment logs)."""
        return asdict(self)

    @classmethod
    def from_dict(cls, payload: dict) -> "GCConfig":
        """Rebuild a configuration from :meth:`to_dict` output."""
        config = cls(**payload)
        config.validate()
        return config
