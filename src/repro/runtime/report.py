"""Per-query report: the full "Query Journey" data for one processed query.

The :class:`QueryReport` carries the actual sets (not just their sizes) of
every quantity Fig. 3 of the paper visualises, so the dashboard scenarios and
the benchmarks can reproduce the journey exactly:

* ``H`` / ``H'`` — confirmed sub-case / super-case hits,
* ``C_M``        — Method M's candidate set (empty on an exact hit, which
  runs no filter: ``baseline_tests`` is then the entry's recorded ``|C_M|``),
* ``S`` / ``S'`` — guaranteed answers / guaranteed non-answers,
* ``C``          — candidates GC actually verified,
* ``R``          — candidates that survived verification,
* ``A``          — the final answer set (``R ∪ S``).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.index.base import GraphId
from repro.query_model import Query


@dataclass
class QueryReport:
    """Everything GC did for one query."""

    query: Query
    # hits
    exact_hit_entry: int | None = None
    sub_hit_entries: list[int] = field(default_factory=list)
    super_hit_entries: list[int] = field(default_factory=list)
    # the journey sets
    method_candidates: set[GraphId] = field(default_factory=set)      # C_M
    guaranteed_answers: set[GraphId] = field(default_factory=set)     # S
    guaranteed_non_answers: set[GraphId] = field(default_factory=set)  # S'
    verified_candidates: set[GraphId] = field(default_factory=set)    # C
    verified_answers: set[GraphId] = field(default_factory=set)       # R
    answer: set[GraphId] = field(default_factory=set)                 # A
    #: Cache population observed just before this query (hit-% denominator).
    cache_population: int = 0
    # costs
    dataset_tests: int = 0
    probe_tests: int = 0
    filter_seconds: float = 0.0
    probe_seconds: float = 0.0
    verify_seconds: float = 0.0
    total_seconds: float = 0.0
    #: ``|C_M|``: the dataset tests Method M alone would run.
    baseline_tests: int = 0
    #: Method M alone, an estimate (Method M is never run twice): filter
    #: seconds plus ``baseline_tests`` × the running average test cost (no
    #: filter ran on an exact hit).
    baseline_seconds: float = 0.0
    #: Wall-clock seconds spent in each pipeline stage, in execution order
    #: (probe → filter → prune → verify → assemble → admit).
    stage_seconds: dict[str, float] = field(default_factory=dict)
    #: Finished :class:`~repro.obs.trace.Span` objects this execution emitted
    #: (empty unless the query carried a sampled trace context).  Worker
    #: processes ship these back inside the wire report so the coordinator's
    #: recorder sees one coherent cross-process tree.
    spans: list = field(default_factory=list)

    @property
    def tests_saved(self) -> int:
        """Dataset sub-iso tests avoided thanks to the cache."""
        return max(0, self.baseline_tests - self.dataset_tests)

    @property
    def test_speedup(self) -> float:
        """Per-query sub-iso-test speedup (|C_M| / |C|), as in Fig. 3."""
        if self.dataset_tests == 0:
            return float("inf") if self.baseline_tests > 0 else 1.0
        return self.baseline_tests / self.dataset_tests

    @property
    def num_hits(self) -> int:
        """Total confirmed hits (sub + super + exact)."""
        return (
            len(self.sub_hit_entries)
            + len(self.super_hit_entries)
            + (1 if self.exact_hit_entry is not None else 0)
        )

    @property
    def hit_percentage(self) -> float:
        """Hits over the cached graphs this query saw, in % (Fig. 2(b)).

        The paper's "number of cache-hits over the number of cached graphs";
        an empty cache counts as one graph, so the ratio is always defined.
        """
        return 100.0 * self.num_hits / max(1, self.cache_population)

    def journey(self) -> dict[str, object]:
        """The Fig. 3 quantities as a plain dictionary (for dashboards)."""
        return {
            "H": list(self.sub_hit_entries),
            "H_prime": list(self.super_hit_entries),
            "exact": self.exact_hit_entry,
            "C_M": sorted(self.method_candidates, key=repr),
            "S": sorted(self.guaranteed_answers, key=repr),
            "S_prime": sorted(self.guaranteed_non_answers, key=repr),
            "C": sorted(self.verified_candidates, key=repr),
            "R": sorted(self.verified_answers, key=repr),
            "A": sorted(self.answer, key=repr),
            "test_speedup": self.test_speedup,
            "stage_seconds": dict(self.stage_seconds),
        }
