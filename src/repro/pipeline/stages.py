"""The four planning stages: analyze → classify → select → transform.

Each stage is a small object with a ``name`` and a ``run(ctx, span)``
method that reads and writes only the :class:`~repro.pipeline.context.
PipelineContext`. The split mirrors the paper's staged decision process
(and the analyze/decide/transform extension point of SMAT-style
autotuners):

==========  ========================================================
stage        responsibility
==========  ========================================================
analyze      bind the lazy Table II feature vector (O(1): a feature
             group is computed when a later stage first reads it)
classify     detect bottleneck classes (+ modeled decision cost)
select       map classes to pool optimizations (reading the features
             a mapping entry needs, by default the row lengths for
             IMB), configure the kernel, substitute quarantined
             variants
transform    charge the modeled setup cost; build the kernel's data
             bundle when the run asks for it
==========  ========================================================

``AdaptiveSpMV`` composes them (see :func:`default_planning_stages`).
Custom stages plug in by matching the :class:`Stage` protocol —
replace, reorder or extend via ``AdaptiveSpMV(stages=...)``. Simulating
the planned kernel is one cost-model call
(:meth:`~repro.core.optimizer.OptimizedSpMV.simulate`), not a stage.
"""

from __future__ import annotations

from typing import Protocol, runtime_checkable

from ..kernels import baseline_kernel, is_quarantined, merged_pool_kernel
from ..kernels.registry import kernel_failure_count
from ..matrices.features import extract_features
from .context import PipelineContext
from .tracer import Span

__all__ = [
    "Stage",
    "AnalyzeStage",
    "ClassifyStage",
    "SelectStage",
    "TransformStage",
    "default_planning_stages",
    "run_stages",
]


@runtime_checkable
class Stage(Protocol):
    """One step of the staged planning pipeline."""

    name: str

    def run(self, ctx: PipelineContext, span: Span) -> None:
        """Advance ``ctx``; record telemetry on ``span``."""
        ...  # pragma: no cover - protocol


class AnalyzeStage:
    """Bind the structural features later stages decide from.

    O(1): :func:`~repro.matrices.features.extract_features` computes a
    feature group on its first read, so a plan pays only for the
    features its classifier and pool actually read.
    """

    name = "analyze"

    def run(self, ctx: PipelineContext, span: Span) -> None:
        ctx.features = extract_features(
            ctx.csr,
            llc_bytes=ctx.machine.llc_bytes,
            line_elems=ctx.machine.line_elems,
        )
        span.set(
            nrows=ctx.csr.nrows,
            ncols=ctx.csr.ncols,
            nnz=ctx.csr.nnz,
        )


class ClassifyStage:
    """Detect bottleneck classes; the paper's decision step."""

    name = "classify"

    def run(self, ctx: PipelineContext, span: Span) -> None:
        ctx.classes, ctx.decision_seconds = (
            ctx.classifier.classify_with_cost(ctx.csr)
        )
        span.charged_seconds = ctx.decision_seconds
        from ..core.classes import format_classes

        span.set(
            classifier=ctx.classifier_kind,
            classes=format_classes(ctx.classes),
            decision_seconds=ctx.decision_seconds,
        )


class SelectStage:
    """Map classes to pool optimizations and configure the kernel.

    The pool selects once; the kernel is built from those names.

    Quarantined variants are substituted by the baseline (recorded both
    in the plan and the span). The kernel stays plain: the guard is an
    axis of the plan's :class:`~repro.engine.ExecutorSpec`, applied by
    :func:`~repro.engine.build_executor` alone.
    """

    name = "select"

    def run(self, ctx: PipelineContext, span: Span) -> None:
        ctx.optimizations = ctx.pool.select(ctx.classes, ctx.features)
        kernel = (
            merged_pool_kernel(ctx.optimizations)
            if ctx.optimizations
            else baseline_kernel()
        )
        quarantined: tuple[str, ...] = ()
        if ctx.optimizations and is_quarantined(kernel.name):
            # The selected variant is known-bad: plan the reference
            # kernel instead and record what was skipped.
            quarantined = (kernel.name,)
            kernel = baseline_kernel()
        ctx.kernel = kernel
        ctx.quarantined = quarantined
        span.set(
            optimizations=list(ctx.optimizations),
            kernel=kernel.name,
            quarantine_substitutions=list(quarantined),
            guard_fault_counts={
                name: kernel_failure_count(name)
                for name in quarantined + (kernel.name,)
                if kernel_failure_count(name)
            },
        )


class TransformStage:
    """Charge the modeled setup cost; build the kernel's data when asked."""

    name = "transform"

    def run(self, ctx: PipelineContext, span: Span) -> None:
        ctx.setup_seconds = ctx.kernel.preprocessing_seconds(
            ctx.csr, ctx.machine
        )
        if ctx.materialize:
            ctx.data = ctx.kernel.preprocess(ctx.csr)
        span.charged_seconds = ctx.setup_seconds
        span.set(
            setup_seconds=ctx.setup_seconds,
            materialized=bool(ctx.materialize),
        )


def default_planning_stages() -> tuple[Stage, ...]:
    """The planning pipeline of :class:`~repro.core.optimizer.
    AdaptiveSpMV`."""
    return (AnalyzeStage(), ClassifyStage(), SelectStage(),
            TransformStage())


def run_stages(stages, ctx: PipelineContext) -> PipelineContext:
    """Run ``stages`` over ``ctx`` in order, one traced span each."""
    for stage in stages:
        with ctx.tracer.span(stage.name) as span:
            stage.run(ctx, span)
    return ctx
