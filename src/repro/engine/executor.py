"""The executor protocol, the executors, and the stack assembler.

An :class:`Executor` is the engine's one execution surface: ``apply``
(single RHS) and ``apply_multi`` (batched RHS), both honoring the
zero-allocation ``out=``/``workspace=`` contract of the formats and
kernels. Each execution mode has exactly one executor class:

* :class:`KernelExecutor` — run one preprocessed kernel serially (the
  engine's leaf; what ``OptimizedSpMV.matvec`` executes through);
* :class:`ParallelExecutor` — run the kernel's partition on the
  shared-memory thread pool (:class:`~repro.parallel.plane.
  ParallelKernel`), bit-identical to serial by construction;
* :class:`~repro.engine.supervision.SupervisedExecutor` — the parallel
  plane behind the retry -> reduced width -> serial degradation ladder;
* :class:`WorkspaceExecutor` — inject a default scratch arena;
* :class:`TraceExecutor` — record one ``engine.apply`` span per apply.

The guard works at kernel granularity
(:class:`~repro.engine.guard.GuardedKernel`) so it composes under the
parallel plane. :func:`build_executor` is the only place a stack is
assembled, in the one canonical order, from a declarative
:class:`~repro.engine.spec.ExecutorSpec`::

    trace( workspace( supervised|parallel|kernel( guard(kernel) ) ) )

Every executor also exposes the operator-facade aliases
``matvec``/``matmat``/``__matmul__``/``shape``, so solvers run on any
stack unchanged.
"""

from __future__ import annotations

from typing import Protocol, runtime_checkable

import numpy as np

from ..formats import CSRMatrix
from ..kernels.base import Kernel
from ..memory import Workspace
from .guard import GuardedKernel, guard_kernel
from .spec import ExecutorSpec

__all__ = ["Executor", "ExecutorBase", "KernelExecutor",
           "ParallelExecutor", "WorkspaceExecutor", "TraceExecutor",
           "build_executor"]


@runtime_checkable
class Executor(Protocol):
    """One composed execution stack: the engine's run-time surface."""

    def apply(self, x: np.ndarray, out: np.ndarray | None = None,
              workspace=None) -> np.ndarray:
        """Compute ``A @ x`` (1-D operand) through the stack."""
        ...  # pragma: no cover - protocol

    def apply_multi(self, X: np.ndarray, out: np.ndarray | None = None,
                    workspace=None) -> np.ndarray:
        """Compute the batched ``A @ X`` (2-D operand) through the
        stack."""
        ...  # pragma: no cover - protocol


def kernel_label(kernel: Kernel) -> str:
    """Description of a stack's innermost kernel. The guard is
    name-transparent, so it is named here: ``guard -> kernel[csr]``."""
    if isinstance(kernel, GuardedKernel):
        return f"guard -> kernel[{kernel.name}]"
    return f"kernel[{kernel.name}]"


class ExecutorBase:
    """Shared operator-facade surface of every engine executor."""

    @property
    def shape(self) -> tuple[int, int]:
        return self.csr.shape

    # Operator-facade aliases: solvers and legacy call sites speak
    # matvec/matmat; the engine protocol speaks apply/apply_multi.
    def matvec(self, x: np.ndarray, out: np.ndarray | None = None,
               workspace=None) -> np.ndarray:
        return self.apply(x, out=out, workspace=workspace)

    def matmat(self, X: np.ndarray, out: np.ndarray | None = None,
               workspace=None) -> np.ndarray:
        return self.apply_multi(X, out=out, workspace=workspace)

    def __matmul__(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x)
        if x.ndim == 2:
            return self.apply_multi(x)
        return self.apply(x)

    def describe(self) -> str:
        """Human-readable stack composition, innermost last."""
        return type(self).__name__


class KernelExecutor(ExecutorBase):
    """Terminal executor: one preprocessed kernel, run serially."""

    def __init__(self, csr: CSRMatrix, kernel: Kernel | None = None,
                 data=None):
        if kernel is None:
            from ..kernels.variants import baseline_kernel

            kernel = baseline_kernel()
        self.csr = csr
        self.kernel = kernel
        self.data = data if data is not None else kernel.preprocess(csr)

    def apply(self, x: np.ndarray, out: np.ndarray | None = None,
              workspace=None) -> np.ndarray:
        return self.kernel.apply(self.data, x, out=out,
                                 workspace=workspace)

    def apply_multi(self, X: np.ndarray, out: np.ndarray | None = None,
                    workspace=None) -> np.ndarray:
        return self.kernel.apply_multi(self.data, X, out=out,
                                       workspace=workspace)

    def describe(self) -> str:
        return kernel_label(self.kernel)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<KernelExecutor {self.kernel!r} {self.csr!r}>"


class ParallelExecutor(ExecutorBase):
    """Terminal executor: the kernel's partition on the thread pool.

    One :class:`~repro.parallel.plane.ParallelKernel` plus its
    preprocessed per-chunk data, applying contiguous row blocks into
    disjoint ``out=`` slices — bit-identical to serial execution by
    construction. ``apply``/``apply_multi`` also take an optional
    ``deadline_seconds`` watchdog budget.
    """

    def __init__(self, csr: CSRMatrix, kernel: Kernel | None = None, *,
                 nthreads: int, schedule: str = "balanced-nnz",
                 chunk_rows: int | None = None):
        from ..parallel.plane import ParallelKernel

        if kernel is None:
            from ..kernels.variants import baseline_kernel

            kernel = baseline_kernel()
        self.csr = csr
        self.kernel = ParallelKernel(kernel, nthreads=nthreads,
                                     schedule=schedule,
                                     chunk_rows=chunk_rows)
        self.data = self.kernel.preprocess(csr)

    @property
    def nthreads(self) -> int:
        return self.data.nthreads

    @property
    def partition(self):
        return self.data.partition

    @property
    def last_measurement(self):
        return self.kernel.last_measurement

    def apply(self, x: np.ndarray, out: np.ndarray | None = None,
              workspace=None,
              deadline_seconds: float | None = None) -> np.ndarray:
        return self.kernel.apply(self.data, x, out=out,
                                 workspace=workspace,
                                 deadline_seconds=deadline_seconds)

    def apply_multi(self, X: np.ndarray, out: np.ndarray | None = None,
                    workspace=None,
                    deadline_seconds: float | None = None) -> np.ndarray:
        return self.kernel.apply_multi(self.data, X, out=out,
                                       workspace=workspace,
                                       deadline_seconds=deadline_seconds)

    def describe(self) -> str:
        return (
            f"parallel[t{self.kernel.nthreads}/{self.kernel.schedule}]"
            f" -> {kernel_label(self.kernel.inner)}"
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<ParallelExecutor {self.kernel!r} {self.csr!r}>"


class _DelegatingExecutor(ExecutorBase):
    """Executor wrapper base: unknown attributes (``last_report``,
    ``last_measurement``, ``partition``, ``csr``, ...) resolve through
    the wrapped executor, so outer layers never hide inner telemetry."""

    def __init__(self, inner):
        self.inner = inner

    def __getattr__(self, name):
        # Only reached for attributes not found on the wrapper itself.
        return getattr(self.inner, name)


class WorkspaceExecutor(_DelegatingExecutor):
    """Injects a default scratch arena into every apply."""

    def __init__(self, inner, arena: Workspace):
        super().__init__(inner)
        self.arena = arena

    def apply(self, x, out=None, workspace=None):
        return self.inner.apply(
            x, out=out,
            workspace=workspace if workspace is not None else self.arena,
        )

    def apply_multi(self, X, out=None, workspace=None):
        return self.inner.apply_multi(
            X, out=out,
            workspace=workspace if workspace is not None else self.arena,
        )

    def describe(self) -> str:
        mode = "thread-local" if self.arena.thread_local else "shared"
        return f"workspace[{mode}] -> {self.inner.describe()}"


class TraceExecutor(_DelegatingExecutor):
    """Records one ``engine.apply`` span per apply on a tracer."""

    def __init__(self, inner, tracer):
        super().__init__(inner)
        self.tracer = tracer
        #: the wrapped stack's description, fixed at construction.
        self.stack = inner.describe()

    def apply(self, x, out=None, workspace=None):
        with self.tracer.span("engine.apply", stack=self.stack) as span:
            y = self.inner.apply(x, out=out, workspace=workspace)
            span.set(rows=int(y.shape[0]))
        return y

    def apply_multi(self, X, out=None, workspace=None):
        with self.tracer.span("engine.apply_multi",
                              stack=self.stack) as span:
            Y = self.inner.apply_multi(X, out=out, workspace=workspace)
            span.set(rows=int(Y.shape[0]), rhs=int(Y.shape[1]))
        return Y

    def describe(self) -> str:
        return f"trace -> {self.stack}"


def build_executor(csr: CSRMatrix, spec: ExecutorSpec | None = None, *,
                   kernel: Kernel | None = None, data=None,
                   tracer=None, workspace: Workspace | None = None):
    """Assemble the executor stack described by ``spec``.

    Parameters
    ----------
    csr
        The matrix the stack executes.
    spec
        The declarative stack description (default: a bare serial
        :class:`KernelExecutor`).
    kernel
        The planned kernel to run (default: the baseline CSR kernel).
        An already-guarded kernel is not re-wrapped.
    data
        Optional preprocessed data for ``kernel`` (serial stacks only;
        ignored — and rebuilt — when the guard wraps a fresh kernel or
        a parallel executor re-chunks the matrix).
    tracer
        Tracer for the supervised executor's ``supervise`` spans and
        the trace executor's ``engine.apply`` spans. Created
        automatically when ``spec.trace`` is set and none is given.
    workspace
        Existing arena to inject (implies a workspace wrap even when
        ``spec.workspace == "none"``), e.g. a plan-cache entry's warm
        buffers.
    """
    # supervision.py builds on ExecutorBase, so it is imported here.
    from .supervision import SupervisedExecutor

    if spec is None:
        spec = ExecutorSpec()
    if kernel is None:
        from ..kernels.variants import baseline_kernel

        kernel = baseline_kernel()
    if spec.trace and tracer is None:
        from ..pipeline.tracer import Tracer

        tracer = Tracer()

    if spec.guard:
        guarded = guard_kernel(kernel)
        if guarded is not kernel:
            data = None  # preprocessed for the unguarded kernel
            kernel = guarded

    par, sup = spec.parallel, spec.supervision
    if par is None:
        executor = KernelExecutor(csr, kernel, data=data)
    elif sup is None:
        executor = ParallelExecutor(
            csr, kernel, nthreads=par.nthreads, schedule=par.schedule,
            chunk_rows=par.chunk_rows,
        )
    else:
        executor = SupervisedExecutor(
            csr, kernel, nthreads=par.nthreads, schedule=par.schedule,
            chunk_rows=par.chunk_rows,
            deadline_seconds=sup.deadline_seconds,
            max_retries=sup.max_retries,
            backoff_seconds=sup.backoff_seconds,
            serial_fallback=sup.serial_fallback,
            tracer=tracer,
        )

    if spec.workspace != "none" or workspace is not None:
        if workspace is None:
            workspace = Workspace(
                thread_local=spec.workspace == "thread-local"
            )
        executor = WorkspaceExecutor(executor, workspace)

    if spec.trace:
        executor = TraceExecutor(executor, tracer)
    return executor
