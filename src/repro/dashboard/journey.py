"""Scenario I — "The Query Journey".

Walks a general end-user through the computations GC performed for a single
query, mirroring the eight panels of Fig. 3 of the paper:

(a) H — sub-case cache hits          (e) H' — super-case cache hits
(b) C_M — Method M's candidate set   (f) C  — GC's reduced candidate set
(c) S — savings by the sub case      (g) R  — candidates surviving sub-iso
(d) S' — savings by the super case   (h) A  — the final answer set

The journey is produced from a :class:`~repro.runtime.report.QueryReport`
plus the dataset graph ids, and renders either as structured steps (for
programmatic consumption/tests) or as plain text (for the terminal
dashboard).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.dashboard.ascii_viz import id_grid
from repro.query_model import QueryType
from repro.runtime.report import QueryReport


@dataclass
class JourneyStep:
    """One panel of the query journey."""

    key: str
    title: str
    description: str
    highlighted: list = field(default_factory=list)
    universe: list = field(default_factory=list)

    def render(self, columns: int = 10) -> str:
        """Render the step as text (title, description, id grid)."""
        grid = id_grid(self.universe, self.highlighted, columns=columns)
        return f"== {self.key}: {self.title} ==\n{self.description}\n{grid}"


class QueryJourney:
    """Builds the Fig. 3 walk-through for one processed query."""

    def __init__(self, report: QueryReport, dataset_ids: list, cache_entry_ids: list[int]) -> None:
        self.report = report
        self.dataset_ids = list(dataset_ids)
        self.cache_entry_ids = list(cache_entry_ids)

    # ------------------------------------------------------------------ #
    # structured steps
    # ------------------------------------------------------------------ #
    def steps(self) -> list[JourneyStep]:
        """The eight journey panels in paper order."""
        report = self.report
        kind = (
            "subgraph" if report.query.query_type is QueryType.SUBGRAPH else "supergraph"
        )
        sub_desc = (
            "Cached queries that contain the new query (sub case)."
            if kind == "subgraph"
            else "Cached queries that contain the new query (sub case; prunes candidates)."
        )
        super_desc = (
            "Cached queries contained in the new query (super case; prunes candidates)."
            if kind == "subgraph"
            else "Cached queries contained in the new query (super case; guaranteed answers)."
        )
        method_desc = ("Data graphs Method M would verify with sub-iso tests "
                       f"({report.baseline_tests} graphs)." if report.exact_hit_entry is None
                       else "Exact hit: Method M's filter did not run; the cached query "
                            f"counted {report.baseline_tests} candidates when it was admitted.")
        return [
            JourneyStep(
                key="H",
                title="Cache Hits (Sub Case)",
                description=sub_desc,
                highlighted=list(report.sub_hit_entries),
                universe=self.cache_entry_ids,
            ),
            JourneyStep(
                key="C_M",
                title="Candidate Set of Method M",
                description=method_desc,
                highlighted=sorted(report.method_candidates, key=repr),
                universe=self.dataset_ids,
            ),
            JourneyStep(
                key="S",
                title="Savings: guaranteed answers",
                description=(
                    "Data graphs known to be in the answer set from cached results — "
                    "no sub-iso verification needed."
                ),
                highlighted=sorted(report.guaranteed_answers, key=repr),
                universe=self.dataset_ids,
            ),
            JourneyStep(
                key="S'",
                title="Savings: guaranteed non-answers",
                description=(
                    "Data graphs known NOT to be in the answer set — "
                    "no sub-iso verification needed."
                ),
                highlighted=sorted(report.guaranteed_non_answers, key=repr),
                universe=self.dataset_ids,
            ),
            JourneyStep(
                key="H'",
                title="Cache Hits (Super Case)",
                description=super_desc,
                highlighted=list(report.super_hit_entries),
                universe=self.cache_entry_ids,
            ),
            JourneyStep(
                key="C",
                title="Candidate Set of GC",
                description=(
                    f"Candidates GC still has to verify: {len(report.verified_candidates)} "
                    f"instead of {report.baseline_tests}."
                ),
                highlighted=sorted(report.verified_candidates, key=repr),
                universe=self.dataset_ids,
            ),
            JourneyStep(
                key="R",
                title="Sub-Iso Result over C",
                description="Candidates that survived sub-iso verification.",
                highlighted=sorted(report.verified_answers, key=repr),
                universe=self.dataset_ids,
            ),
            JourneyStep(
                key="A",
                title="Answer Set",
                description="Final answer: verified survivors plus guaranteed answers.",
                highlighted=sorted(report.answer, key=repr),
                universe=self.dataset_ids,
            ),
        ]

    # ------------------------------------------------------------------ #
    # rendering
    # ------------------------------------------------------------------ #
    def speedup_summary(self) -> str:
        """The closing line of the journey (e.g. "75/43 = 1.74x")."""
        report = self.report
        baseline = report.baseline_tests
        reduced = len(report.verified_candidates)
        if reduced == 0:
            ratio = "∞" if baseline > 0 else "1.00"
        else:
            ratio = f"{baseline / reduced:.2f}"
        return (
            f"GC reduced the number of sub-iso tests from {baseline} to {reduced} "
            f"(speedup {ratio}×) for this query."
        )

    def render_text(self, columns: int = 10) -> str:
        """Full plain-text journey."""
        header = (
            f"The Query Journey — query {self.report.query.query_id} "
            f"({self.report.query.query_type.value}, "
            f"|V|={self.report.query.num_vertices}, |E|={self.report.query.num_edges})"
        )
        body = "\n\n".join(step.render(columns=columns) for step in self.steps())
        return f"{header}\n\n{body}\n\n{self.speedup_summary()}"
