"""The GC cache kernel: entries, the indexed store, policies, persistence, statistics."""

from repro.cache.entry import CacheEntry, EntryStatistics
from repro.cache.graph_cache import CacheLookup, GraphCache
from repro.cache.policies import (
    EvictionReport,
    FIFOPolicy,
    HDPolicy,
    HitContribution,
    HitKind,
    LRUPolicy,
    PINCPolicy,
    PINPolicy,
    POPPolicy,
    RandomPolicy,
    ReplacementPolicy,
    SizePolicy,
    available_policies,
    make_policy,
    register_policy,
)
from repro.cache.persistence import (
    entry_from_dict,
    entry_to_dict,
    load_cache_entries,
    restore_cache,
    save_cache,
)
from repro.cache.pruner import CandidateSetPruner, PruningResult
from repro.cache.statistics import AggregateStatistics, StatisticsManager
from repro.cache.store import CacheStore

__all__ = [
    "CacheEntry",
    "EntryStatistics",
    "CacheStore",
    "GraphCache",
    "CacheLookup",
    "CandidateSetPruner",
    "PruningResult",
    "StatisticsManager",
    "AggregateStatistics",
    "ReplacementPolicy",
    "HitKind",
    "HitContribution",
    "EvictionReport",
    "LRUPolicy",
    "POPPolicy",
    "PINPolicy",
    "PINCPolicy",
    "HDPolicy",
    "FIFOPolicy",
    "RandomPolicy",
    "SizePolicy",
    "register_policy",
    "available_policies",
    "make_policy",
    "save_cache",
    "restore_cache",
    "load_cache_entries",
    "entry_to_dict",
    "entry_from_dict",
]
