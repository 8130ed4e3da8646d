"""The state threaded through one staged planning run.

A :class:`PipelineContext` carries the inputs of a run (matrix, target
machine, classifier, pool, executor spec) and accumulates each stage's
products (features, classes, selected optimizations, configured kernel,
preprocessed data, modeled costs). Stages communicate exclusively through
the context — no stage holds private state — which is what makes them
independently swappable and traceable.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..formats import CSRMatrix
from ..machine import MachineSpec
from .tracer import Tracer

__all__ = ["PipelineContext"]


@dataclass
class PipelineContext:
    """Everything one planning run reads and writes.

    Inputs are set by the caller; the remaining fields start empty and
    are filled by the stages (see :mod:`repro.pipeline.stages` for
    which stage owns which field).
    """

    # -- inputs --------------------------------------------------------
    csr: CSRMatrix
    machine: MachineSpec
    classifier: object
    classifier_kind: str
    pool: object
    #: read by no stage: planning handles plain kernels only, and the
    #: guard is ``spec.guard``, applied by
    #: :func:`~repro.engine.build_executor`.
    guard: bool = False
    #: convert the execution format for real (``optimize``) or only
    #: charge its modeled cost (``plan``)?
    materialize: bool = True
    #: the optimizer's :class:`~repro.engine.ExecutorSpec` — folded
    #: into the built plan so a cached plan rebuilds the same stack.
    spec: object | None = None
    #: the optimizer's :class:`~repro.model.base.CostModel`, whose
    #: signature the built plan records (None: ``"analytic"``).
    model: object | None = None
    tracer: Tracer = field(default_factory=Tracer)

    # -- produced by the stages ---------------------------------------
    features: object | None = None          # analyze
    classes: object | None = None           # classify
    decision_seconds: float = 0.0           # classify (modeled cost)
    optimizations: tuple[str, ...] = ()     # select
    kernel: object | None = None            # select
    quarantined: tuple[str, ...] = ()       # select (substituted names)
    setup_seconds: float = 0.0              # transform (modeled cost)
    data: object | None = None              # transform (when materialized)

    def build_plan(self):
        """Freeze the run's decisions into an :class:`OptimizationPlan`."""
        from ..core.optimizer import OptimizationPlan

        if self.classes is None or self.kernel is None:
            raise RuntimeError(
                "pipeline incomplete: classify and select must run "
                "before a plan can be built"
            )
        plan = OptimizationPlan(
            classes=self.classes,
            optimizations=self.optimizations,
            kernel_name=self.kernel.name,
            decision_seconds=self.decision_seconds,
            setup_seconds=self.setup_seconds,
            classifier_kind=self.classifier_kind,
            quarantined=self.quarantined,
            cost_model=(
                self.model.signature() if self.model is not None
                else "analytic"
            ),
        )
        if self.spec is not None:
            from dataclasses import replace

            plan = replace(plan, executor_spec=self.spec)
        return plan
