"""Staged planning pipeline (analyze → classify → select → transform)
with per-stage telemetry.

The package splits :class:`~repro.core.optimizer.AdaptiveSpMV`'s
decision process into four explicitly composable stages
(:mod:`repro.pipeline.stages`), threads their state through a
:class:`PipelineContext`, and records a :class:`Span` per stage on a
:class:`Tracer` (JSON-exportable; ``repro-spmv trace``). See
docs/observability.md.
"""

from .context import PipelineContext
from .stages import (
    AnalyzeStage,
    ClassifyStage,
    SelectStage,
    Stage,
    TransformStage,
    default_planning_stages,
    run_stages,
)
from .tracer import TRACE_SCHEMA_VERSION, Span, Tracer

__all__ = [
    "TRACE_SCHEMA_VERSION",
    "Span",
    "Tracer",
    "PipelineContext",
    "Stage",
    "AnalyzeStage",
    "ClassifyStage",
    "SelectStage",
    "TransformStage",
    "default_planning_stages",
    "run_stages",
]
