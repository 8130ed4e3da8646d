"""The five pipeline stages: analyze → classify → select → transform → execute.

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
execute      simulate one kernel execution on the target machine
==========  ========================================================

``AdaptiveSpMV`` composes the first four (see
:func:`default_planning_stages`); the :class:`~repro.pipeline.runner.
PipelineRunner` appends :class:`ExecuteStage`. Custom stages plug in by
matching the :class:`Stage` protocol — replace, reorder or extend via
``AdaptiveSpMV(stages=...)``.
"""

from __future__ import annotations

from typing import Protocol, runtime_checkable

from ..kernels import baseline_kernel, is_quarantined, merged_pool_kernel
from ..kernels.registry import kernel_failure_count
from ..matrices.features import extract_features
from ..model import AnalyticModel, prediction_error_pct
from .context import PipelineContext
from .tracer import Span

__all__ = [
    "Stage",
    "AnalyzeStage",
    "ClassifyStage",
    "SelectStage",
    "TransformStage",
    "ExecuteStage",
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


class ExecuteStage:
    """Predict one kernel execution through the context's cost model.

    With ``nthreads`` set, additionally *runs* the kernel on the real
    shared-memory parallel plane — through an engine stack
    (:func:`repro.engine.build_executor` with a supervision layer), so a worker
    fault or a breached ``deadline_seconds`` degrades through the
    retry/serial ladder instead of crashing the pipeline — and records
    the measured per-thread wall and CPU times next to the model's
    prediction: the span then carries ``measured_imbalance`` (observed)
    and ``predicted_imbalance`` (cost-plane) for the same thread count,
    the ``predicted_gflops`` / ``measured_gflops`` /
    ``model_error_pct`` triple that feeds
    :meth:`~repro.model.CalibratedModel.refine`, plus the
    ``supervision`` ladder outcome when the run degraded.

    ``deadline_seconds`` accepts the string ``"auto"``: the watchdog
    budget is then derived from the model's own prediction
    (:meth:`~repro.model.AnalyticModel.suggest_deadline`) — tight when
    a refined calibrated model predicts host wall time, generous
    otherwise.
    """

    name = "execute"

    def __init__(self, nthreads: int | None = None,
                 schedule: str | None = None,
                 chunk_rows: int | None = None,
                 repeats: int = 1,
                 deadline_seconds: "float | str | None" = None,
                 max_retries: int = 2):
        if nthreads is not None and int(nthreads) < 1:
            raise ValueError("nthreads must be >= 1")
        if repeats < 1:
            raise ValueError("repeats must be >= 1")
        if isinstance(deadline_seconds, str) and deadline_seconds != "auto":
            raise ValueError(
                "deadline_seconds must be a number, None, or 'auto'"
            )
        self.nthreads = None if nthreads is None else int(nthreads)
        self.schedule = schedule
        self.chunk_rows = chunk_rows
        self.repeats = int(repeats)
        self.deadline_seconds = deadline_seconds
        self.max_retries = int(max_retries)

    @staticmethod
    def _model(ctx: PipelineContext):
        if ctx.model is not None:
            return ctx.model
        ctx.model = AnalyticModel(ctx.machine, ctx.nthreads)
        return ctx.model

    def run(self, ctx: PipelineContext, span: Span) -> None:
        if ctx.data is None:
            ctx.data = ctx.kernel.preprocess(ctx.csr)
        model = self._model(ctx)
        ctx.result = model.run(ctx.kernel, ctx.data,
                               nthreads=ctx.nthreads)
        span.set(**ctx.result.summary())
        span.set(cost_model=model.signature(),
                 predicted_gflops=float(ctx.result.gflops))
        if self.nthreads is not None:
            self._measure(ctx, span)

    def _resolve_deadline(self, ctx: PipelineContext,
                          model) -> float | None:
        if self.deadline_seconds != "auto":
            return self.deadline_seconds
        return model.suggest_deadline(ctx.kernel, ctx.data,
                                      nthreads=self.nthreads)

    def _measure(self, ctx: PipelineContext, span: Span) -> None:
        """Execute for real on the thread pool; span gets measured vs
        predicted imbalance and Gflop/s at the *measured* thread count."""
        import numpy as np

        from ..engine import ExecutorSpec, SupervisionSpec, build_executor
        from ..parallel import ParallelConfig

        model = self._model(ctx)
        schedule = self.schedule or getattr(
            ctx.kernel, "schedule", "balanced-nnz"
        )
        # No tracer here on purpose: the measurement's ladder outcome is
        # folded into *this* execute span below, not its own spans.
        sup = build_executor(
            ctx.csr,
            ExecutorSpec(
                parallel=ParallelConfig(nthreads=self.nthreads,
                                        schedule=schedule,
                                        chunk_rows=self.chunk_rows),
                supervision=SupervisionSpec(
                    deadline_seconds=self._resolve_deadline(ctx, model),
                    max_retries=self.max_retries,
                ),
            ),
            kernel=ctx.kernel,
        )
        x = np.ones(ctx.csr.ncols)
        best = None
        report = None
        for _ in range(self.repeats):
            sup.apply(x)
            report = sup.last_report
            m = sup.last_measurement
            if m is not None and (
                best is None or m.wall_seconds < best.wall_seconds
            ):
                best = m
        # Predicted imbalance at the same thread count as the run
        # (ctx.nthreads may differ, e.g. the machine default).
        predicted = ctx.result
        if ctx.nthreads != self.nthreads:
            predicted = model.run(ctx.kernel, ctx.data,
                                  nthreads=self.nthreads)
        ctx.measured = best
        ctx.supervision = report
        span.set(
            predicted_imbalance=predicted.imbalance,
            supervision=report.summary(),
        )
        if best is not None:
            flops = 2.0 * ctx.csr.nnz
            measured_gflops = (
                flops / best.wall_seconds / 1e9
                if best.wall_seconds > 0 else 0.0
            )
            error_pct = prediction_error_pct(
                predicted.gflops, measured_gflops
            )
            span.set(
                measured=best.summary(),
                measured_imbalance=best.imbalance,
                measured_wall_imbalance=best.wall_imbalance,
                parallel_nthreads=best.nthreads,
                parallel_schedule=best.schedule,
                predicted_gflops=float(predicted.gflops),
                measured_gflops=float(measured_gflops),
                model_error_pct=float(error_pct),
            )
            # Feed the online refinement loop: a calibrated model
            # accumulates the pair and folds it in on refine().
            observe = getattr(model, "observe", None)
            if observe is not None:
                observe(ctx.kernel.name, predicted.seconds,
                        best.wall_seconds)


def default_planning_stages() -> tuple[Stage, ...]:
    """The planning pipeline of :class:`~repro.core.optimizer.
    AdaptiveSpMV`: everything except execution."""
    return (AnalyzeStage(), ClassifyStage(), SelectStage(),
            TransformStage())


def run_stages(stages, ctx: PipelineContext) -> PipelineContext:
    """Run ``stages`` over ``ctx`` in order, one traced span each."""
    for stage in stages:
        with ctx.tracer.span(stage.name) as span:
            stage.run(ctx, span)
    return ctx
