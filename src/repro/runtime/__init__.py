"""Query Processing Runtime: configuration, pipeline, executor and the facade."""

from repro.query_model import Query, QueryType
from repro.runtime.config import GCConfig
from repro.runtime.executor import QueryExecutor
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
    "QueryExecutor",
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
