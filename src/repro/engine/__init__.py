"""repro.engine — the composable middleware execution engine.

One execution surface (:class:`Executor`: ``apply``/``apply_multi``
with the zero-allocation ``out=``/``workspace=`` contract), one
executor class per execution mode (:class:`KernelExecutor`,
:class:`ParallelExecutor`, :class:`SupervisedExecutor`,
:class:`WorkspaceExecutor`, :class:`TraceExecutor`, plus
:class:`GuardedKernel` at kernel level) and a declarative,
schema-versioned :class:`ExecutorSpec` that :func:`build_executor` —
the only stack assembler — turns into a stack. Specs serialize into
the :class:`~repro.core.optimizer.OptimizationPlan` IR, so a
warm-started plan rebuilds the exact same stack in a fresh process::

    from repro.engine import ExecutorSpec, SupervisionSpec, build_executor
    from repro.parallel import ParallelConfig

    spec = ExecutorSpec(guard=True,
                        parallel=ParallelConfig(nthreads=4),
                        supervision=SupervisionSpec(deadline_seconds=0.5),
                        workspace="thread-local")
    engine = build_executor(csr, spec)
    y = engine.apply(x)                     # == csr.matvec(x), bit-identical

See docs/architecture.md ("The execution engine") for the layer-stack
diagram and the composition rules.
"""

from .executor import (
    Executor,
    ExecutorBase,
    KernelExecutor,
    ParallelExecutor,
    TraceExecutor,
    WorkspaceExecutor,
    build_executor,
)
from .guard import GuardedData, GuardedKernel, guard_kernel
from .spec import (
    ENGINE_SPEC_SCHEMA_VERSION,
    WORKSPACE_MODES,
    ExecutorSpec,
    SupervisionSpec,
)
from .supervision import (
    AttemptRecord,
    SupervisedExecutor,
    SupervisionReport,
    clear_demotions,
    demoted_target,
    demotion_count,
    demotion_log,
    record_demotion,
)

__all__ = [
    "ENGINE_SPEC_SCHEMA_VERSION",
    "WORKSPACE_MODES",
    "AttemptRecord",
    "Executor",
    "ExecutorBase",
    "ExecutorSpec",
    "GuardedData",
    "GuardedKernel",
    "KernelExecutor",
    "ParallelExecutor",
    "SupervisedExecutor",
    "SupervisionReport",
    "SupervisionSpec",
    "TraceExecutor",
    "WorkspaceExecutor",
    "build_executor",
    "clear_demotions",
    "demoted_target",
    "demotion_count",
    "demotion_log",
    "guard_kernel",
    "record_demotion",
]
