"""The executor protocol, the executors, and the stack assembler.

An :class:`Executor` is the engine's one execution surface: ``apply``
(single RHS) and ``apply_multi`` (batched RHS), both honoring the
zero-allocation ``out=``/``workspace=`` contract of the formats and
kernels. Each execution mode has exactly one executor class:

* :class:`KernelExecutor` — run one preprocessed kernel serially (the
  engine's leaf);
* :class:`ParallelExecutor` — run the kernel's partition on the
  shared-memory thread pool, one preprocessed row window per chunk,
  bit-identical to serial by construction;
* :class:`~repro.engine.supervision.SupervisedExecutor` — the parallel
  plane behind the retry -> reduced width -> serial degradation ladder;
* :class:`WorkspaceExecutor` — inject a default scratch arena;
* :class:`TraceExecutor` — record one ``engine.apply`` span per apply.

The guard works at kernel granularity
(:class:`~repro.engine.guard.GuardedKernel`) so it composes under the
parallel plane. :func:`build_executor` is the only place a stack is
assembled, in the one canonical order, from a declarative
:class:`~repro.engine.spec.ExecutorSpec` — and so the only place a
spec's guard is applied::

    trace( workspace( supervised|parallel|kernel( guard(kernel) ) ) )

Every executor also exposes the operator-facade aliases
``matvec``/``matmat``/``__matmul__``/``shape``, so solvers run on any
stack unchanged.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from concurrent.futures import wait as futures_wait
from typing import Protocol, runtime_checkable

import numpy as np

from ..errors import ChunkFailure, ParallelExecutionError
from ..formats import CSRMatrix
from ..formats.base import (
    check_out_buffer,
    contiguous_operand,
    trust_out_buffer,
)
from ..kernels.base import Kernel
from ..memory import Workspace
from ..parallel.plane import ParallelConfig, ParallelMeasurement, build_chunks
from ..parallel.pool import get_executor
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

    Construction partitions the matrix and preprocesses one zero-copy
    row window per contiguous run
    (:func:`~repro.parallel.plane.build_chunks`). Each chunk writes its
    own *disjoint* ``out`` slice, so the result is bit-identical to
    serial execution by construction. Like an OpenMP master thread, the
    calling thread runs slot 0 (one worker's share of the partition)
    itself and hands slots 1..n-1 to the width-n pool; a slot the pool
    has not started by the time slot 0 finishes is cancelled there and
    run on the caller too. Static kinds pin chunks to their owning
    slot; ``kind == "dynamic"`` partitions drain a shared chunk queue
    (the caller drains it like any worker), so the thread that runs a
    chunk is decided at execution time, like an OpenMP
    ``schedule(dynamic)`` loop.

    ``apply``/``apply_multi`` also take an optional ``deadline_seconds``
    watchdog budget; with one armed, every slot goes to the pool so the
    watchdog can abandon a hung chunk. ``nthreads`` and ``partition``
    describe the partition actually built (its width may be below the
    requested ``config.nthreads``); ``last_measurement`` holds the
    per-slot clocks of the most recent apply.
    """

    def __init__(self, csr: CSRMatrix, kernel: Kernel | None = None, *,
                 nthreads: int, schedule: str = "balanced-nnz",
                 chunk_rows: int | None = None):
        self.config = ParallelConfig(int(nthreads), schedule, chunk_rows)
        if kernel is None:
            from ..kernels.variants import baseline_kernel

            kernel = baseline_kernel()
        self.csr = csr
        self.kernel = kernel
        self.partition, self.chunks = build_chunks(csr, kernel, self.config)
        # Chunk indices per owning thread, in row order (static seed
        # assignment; the dynamic path ignores ownership).
        self.thread_chunks: list[list[int]] = [
            [] for _ in range(self.partition.nthreads)
        ]
        for ci, chunk in enumerate(self.chunks):
            self.thread_chunks[chunk.tid].append(ci)
        self._workspace = Workspace(thread_local=True)
        #: measurement of the most recent apply/apply_multi.
        self.last_measurement: ParallelMeasurement | None = None

    @property
    def nthreads(self) -> int:
        return self.partition.nthreads

    def apply(self, x: np.ndarray, out: np.ndarray | None = None,
              workspace=None,
              deadline_seconds: float | None = None) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        nrows, ncols = self.csr.shape
        if x.shape != (ncols,):
            raise ValueError(
                f"x must have shape ({ncols},), got {x.shape}"
            )
        if out is None:
            y = np.empty(nrows, dtype=np.float64)
        else:
            y = check_out_buffer(out, (nrows,), operand=x)
        x = contiguous_operand(x, workspace, "parallel.x")
        # Validate once here; each chunk's y[lo:hi] slice stays a
        # trusted view, so the kernel skips re-validating the same
        # buffer nthreads times per apply.
        self._supervised(x, trust_out_buffer(y), multi=False,
                         caller_out=out is not None,
                         deadline_seconds=deadline_seconds)
        return y

    def apply_multi(self, X: np.ndarray, out: np.ndarray | None = None,
                    workspace=None,
                    deadline_seconds: float | None = None) -> np.ndarray:
        X = np.ascontiguousarray(X, dtype=np.float64)
        nrows, ncols = self.csr.shape
        if X.ndim != 2 or X.shape[0] != ncols:
            raise ValueError(
                f"X must have shape ({ncols}, k), got {X.shape}"
            )
        k = X.shape[1]
        if out is None:
            Y = np.empty((nrows, k), dtype=np.float64)
        else:
            Y = check_out_buffer(out, (nrows, k), operand=X)
        self._supervised(X, trust_out_buffer(Y), multi=True,
                         caller_out=out is not None,
                         deadline_seconds=deadline_seconds)
        return Y

    def describe(self) -> str:
        return (
            f"parallel[t{self.config.nthreads}/{self.config.schedule}]"
            f" -> {kernel_label(self.kernel)}"
        )

    def _supervised(self, x: np.ndarray, y: np.ndarray, *, multi: bool,
                    caller_out: bool,
                    deadline_seconds: float | None) -> np.ndarray:
        """Run ``_execute`` with the out-buffer safety contract.

        A caller-owned ``out`` is never returned partially written: on
        any :class:`~repro.errors.ParallelExecutionError` it is
        NaN-invalidated before the error escapes. When a deadline is
        armed the chunks additionally compute into private scratch —
        a breached deadline abandons still-running workers, and those
        must never race a buffer the caller can still observe — with
        one ``copyto`` into ``out`` only on success.
        """
        target = y
        if deadline_seconds is not None and caller_out:
            target = np.empty_like(y)
        try:
            self._execute(x, target, multi=multi,
                          deadline_seconds=deadline_seconds)
        except ParallelExecutionError:
            if caller_out:
                y.fill(np.nan)
            raise
        if target is not y:
            np.copyto(y, target)
        return y

    def _run_chunk(self, chunk, x: np.ndarray, y: np.ndarray, *,
                   multi: bool) -> None:
        # y[lo:hi] is a C-contiguous view (leading-axis slice of a
        # C-contiguous array), disjoint from every other chunk's slice.
        out = y[chunk.lo : chunk.hi]
        if multi:
            self.kernel.apply_multi(chunk.data, x, out=out,
                                    workspace=self._workspace)
        else:
            self.kernel.apply(chunk.data, x, out=out,
                              workspace=self._workspace)

    def _execute(self, x: np.ndarray, y: np.ndarray, *, multi: bool,
                 deadline_seconds: float | None = None
                 ) -> ParallelMeasurement:
        nthreads = self.nthreads
        schedule = self.config.schedule
        started = time.perf_counter()
        walls = [0.0] * nthreads
        cpus = [0.0] * nthreads
        counts = [0] * nthreads
        # Supervision state: per-chunk failures with attribution, a
        # cooperative cancel flag (set on first failure or deadline
        # breach; workers check it between chunks), and the chunk each
        # slot is currently executing (for timeout attribution).
        failures: list[ChunkFailure] = []
        cancel = threading.Event()
        current = [-1] * nthreads

        def run_chunks(slot: int, indices) -> None:
            w0 = time.perf_counter()
            c0 = time.thread_time()
            try:
                for ci in indices:
                    if cancel.is_set():
                        break
                    chunk = self.chunks[ci]
                    current[slot] = ci
                    try:
                        self._run_chunk(chunk, x, y, multi=multi)
                    except Exception as exc:
                        failures.append(ChunkFailure(
                            chunk_index=ci, row_lo=chunk.lo,
                            row_hi=chunk.hi, thread_slot=slot,
                            kind="exception",
                            detail=f"{type(exc).__name__}: {exc}",
                        ))
                        cancel.set()
                        break
                    counts[slot] += 1
            finally:
                current[slot] = -1
                cpus[slot] = time.thread_time() - c0
                walls[slot] = time.perf_counter() - w0

        if self.partition.is_dynamic:
            queue = deque(range(len(self.chunks)))

            def drain():
                while True:
                    try:
                        yield queue.popleft()  # thread-safe pop
                    except IndexError:
                        return

            def worker(slot: int) -> None:
                run_chunks(slot, drain())
        else:

            def worker(slot: int) -> None:
                run_chunks(slot, self.thread_chunks[slot])

        # Without a deadline the caller runs slot 0 itself, like an
        # OpenMP master thread, and the pool gets slots 1..n-1. A
        # deadline sends every slot to the pool (even at one thread) so
        # the watchdog can abandon a hung chunk instead of blocking the
        # caller inline forever.
        inline = deadline_seconds is None
        slots = range(1 if inline else 0, nthreads)
        futures = []
        if slots:
            pool = get_executor(nthreads)
            futures = [pool.submit(worker, slot) for slot in slots]
        if inline:
            worker(0)
            for slot, future in zip(slots, futures):
                if future.cancel():
                    # The pool never started this slot (its workers are
                    # busy, maybe with the task that made this call): run
                    # it here rather than wait for a worker that may never
                    # come free.
                    worker(slot)
                else:
                    future.result()  # chunk faults are captured; this
                    # only propagates errors in the worker loop itself
        else:
            remaining = deadline_seconds - (time.perf_counter() - started)
            done, not_done = futures_wait(futures,
                                          timeout=max(remaining, 0.0))
            if not_done:
                cancel.set()
                for future in not_done:
                    future.cancel()  # unstarted workers never run
                timeouts = []
                for slot, future in enumerate(futures):
                    if future not in not_done:
                        continue
                    ci = current[slot]
                    if ci >= 0:
                        chunk = self.chunks[ci]
                        timeouts.append(ChunkFailure(
                            chunk_index=ci, row_lo=chunk.lo,
                            row_hi=chunk.hi, thread_slot=slot,
                            kind="timeout",
                            detail="chunk still running at deadline",
                        ))
                    else:
                        timeouts.append(ChunkFailure(
                            chunk_index=-1, row_lo=-1, row_hi=-1,
                            thread_slot=slot, kind="timeout",
                            detail="worker unfinished at deadline",
                        ))
                raise ParallelExecutionError(
                    "deadline", tuple(failures) + tuple(timeouts),
                    nthreads=nthreads, schedule=schedule,
                    wall_seconds=time.perf_counter() - started,
                    deadline_seconds=deadline_seconds,
                )
            for future in futures:
                future.result()

        if failures:
            raise ParallelExecutionError(
                "worker-fault", tuple(failures),
                nthreads=nthreads, schedule=schedule,
                wall_seconds=time.perf_counter() - started,
                deadline_seconds=deadline_seconds,
            )

        measurement = ParallelMeasurement(
            nthreads=nthreads,
            schedule=schedule,
            dynamic=self.partition.is_dynamic,
            wall_seconds=time.perf_counter() - started,
            thread_wall_seconds=tuple(walls),
            thread_cpu_seconds=tuple(cpus),
            chunks_per_thread=tuple(counts),
        )
        self.last_measurement = measurement
        return measurement

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"<ParallelExecutor t={self.nthreads} "
            f"{self.config.schedule!r} {self.kernel!r} {self.csr!r}>"
        )


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
        a parallel executor re-chunks the matrix). The guard adopts it
        (:meth:`~repro.engine.guard.GuardedKernel.adopt`).
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

    par, sup = spec.parallel, spec.supervision
    if spec.guard:
        guarded = guard_kernel(kernel)
        if guarded is not kernel:
            if data is not None and par is None:
                data = guarded.adopt(csr, data)
            kernel = guarded

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
