"""Composable synthesis pipeline: the public flow API.

Quick start::

    from repro.pipeline import FlowConfig, Pipeline

    result = Pipeline().run(gcd(), FlowConfig(n_steps=7))

Sweeps::

    from repro.pipeline import explore

    space = explore(["dealer", "gcd", "vender"], budgets=[5, 6, 7])
    print(space.table())
"""

from repro.pipeline.cache import ArtifactCache, CacheStats, graph_fingerprint
from repro.pipeline.config import FlowConfig
from repro.pipeline.context import FlowContext, MissingArtifactError
from repro.pipeline.engine import (
    Pipeline,
    PipelineWiringError,
    run_flow,
    run_pair,
)
from repro.pipeline.explore import (
    PARETO_OBJECTIVES,
    ExplorationPoint,
    ExplorationResult,
    clear_explore_cache,
    explore,
    job_key,
    journal_point,
    load_point_journal,
    open_point_journal,
    plan_jobs,
    run_chunk,
)
from repro.pipeline.registry import (
    UnknownSchedulerError,
    available_schedulers,
    get_scheduler,
    ii_capable_schedulers,
    register_scheduler,
    supports_initiation_interval,
    unregister_scheduler,
)
from repro.pipeline.result import SynthesisPair, SynthesisResult
from repro.pipeline.store import IndexedArtifactStore, StageStore
from repro.pipeline.stages import (
    AllocateStage,
    AnalyzeStage,
    ElaborateStage,
    PowerManageStage,
    ReportStage,
    ScheduleStage,
    Stage,
    StageError,
    ValidateStage,
    VerifyStage,
    default_stages,
)

__all__ = [
    "AllocateStage",
    "AnalyzeStage",
    "ArtifactCache",
    "CacheStats",
    "ElaborateStage",
    "ExplorationPoint",
    "ExplorationResult",
    "FlowConfig",
    "FlowContext",
    "IndexedArtifactStore",
    "MissingArtifactError",
    "PARETO_OBJECTIVES",
    "Pipeline",
    "PipelineWiringError",
    "PowerManageStage",
    "ReportStage",
    "ScheduleStage",
    "Stage",
    "StageError",
    "StageStore",
    "SynthesisPair",
    "SynthesisResult",
    "UnknownSchedulerError",
    "ValidateStage",
    "VerifyStage",
    "available_schedulers",
    "clear_explore_cache",
    "default_stages",
    "explore",
    "get_scheduler",
    "graph_fingerprint",
    "ii_capable_schedulers",
    "job_key",
    "journal_point",
    "load_point_journal",
    "open_point_journal",
    "plan_jobs",
    "register_scheduler",
    "run_chunk",
    "run_flow",
    "run_pair",
    "supports_initiation_interval",
    "unregister_scheduler",
]
