"""Query Processing Runtime: configuration, the staged pipeline and the
:class:`GraphCacheSystem` facade that runs it."""

from repro.query_model import Query, QueryType
from repro.runtime.config import GCConfig
from repro.runtime.pipeline import (
    AdmitStage,
    AssembleStage,
    ExecutionContext,
    FilterStage,
    PipelineStage,
    ProbeStage,
    PruneStage,
    QueryPipeline,
    VerifyStage,
)
from repro.runtime.report import QueryReport
from repro.runtime.system import GraphCacheSystem

__all__ = [
    "Query",
    "QueryType",
    "GCConfig",
    "QueryReport",
    "GraphCacheSystem",
    "ExecutionContext",
    "PipelineStage",
    "QueryPipeline",
    "FilterStage",
    "ProbeStage",
    "PruneStage",
    "VerifyStage",
    "AssembleStage",
    "AdmitStage",
]
