"""Real shared-memory parallel SpMV execution.

This module executes :class:`~repro.sched.base.Partition` objects for
real: each contiguous row range of the partition becomes a chunk, a
zero-copy row window (``csr.submatrix_rows``) preprocessed once by the
wrapped kernel and applied by a pool worker that writes a *disjoint*
slice of the shared output vector. Static kinds pin chunks
to their owning thread; ``kind == "dynamic"`` partitions are executed
through a shared chunk queue, so the thread that runs a chunk is decided
at execution time — exactly like an OpenMP ``schedule(dynamic)`` loop.

Numerics are bit-identical to the serial kernels by construction: every
chunk is a contiguous row range, a row's sum is computed by exactly one
chunk from that row's own nonzeros in their stored order, and each
result lands in its own ``out`` slice — no cross-thread reduction ever
happens (a long row stays whole inside one chunk; the decomposed
format's cooperative long-row split is only priced, not executed).

Two measured clocks are recorded per worker:

* ``thread_wall_seconds`` — ``perf_counter`` span of the worker's
  chunk loop; on an oversubscribed host this includes time spent
  descheduled, so it is the honest makespan contribution;
* ``thread_cpu_seconds`` — ``time.thread_time`` (per-thread CPU time),
  which counts only cycles the thread actually burned. This is the
  analogue of the paper's per-thread execution times in the ``P_IMB``
  bound and is robust to GIL/CPU contention, so measured-vs-predicted
  imbalance comparisons use it (see docs/parallelism.md).
"""

from __future__ import annotations

import threading
import time
from collections import deque
from concurrent.futures import wait as futures_wait
from dataclasses import dataclass

import numpy as np

from ..errors import ChunkFailure, ParallelExecutionError
from ..formats import CSRMatrix
from ..formats.base import (
    check_out_buffer,
    contiguous_operand,
    trust_out_buffer,
)
from ..kernels.base import Kernel
from ..machine import KernelCost, MachineSpec
from ..memory import Workspace
from ..sched import Partition, make_partition
from .pool import get_executor

__all__ = [
    "ParallelConfig",
    "ParallelMeasurement",
    "ParallelData",
    "ParallelKernel",
]


@dataclass(frozen=True)
class ParallelConfig:
    """Declarative parallel-execution configuration.

    Folded into plan-cache keys (see
    :meth:`repro.core.optimizer.AdaptiveSpMV`) so plans tuned for one
    thread count / schedule are never reused for another.
    """

    nthreads: int
    schedule: str = "balanced-nnz"
    chunk_rows: int | None = None

    def __post_init__(self) -> None:
        if int(self.nthreads) < 1:
            raise ValueError(
                f"nthreads must be >= 1, got {self.nthreads}"
            )

    def signature(self) -> str:
        """Stable string folded into cache keys."""
        return (
            f"parallel:nthreads={int(self.nthreads)}"
            f",schedule={self.schedule}"
            f",chunk_rows={self.chunk_rows if self.chunk_rows else 'auto'}"
        )


@dataclass(frozen=True)
class ParallelMeasurement:
    """Measured per-thread clocks of one parallel apply."""

    nthreads: int
    schedule: str
    dynamic: bool
    wall_seconds: float                  # makespan of the whole apply
    thread_wall_seconds: tuple[float, ...]
    thread_cpu_seconds: tuple[float, ...]
    chunks_per_thread: tuple[int, ...]

    @staticmethod
    def _imbalance(times: tuple[float, ...]) -> float:
        arr = np.asarray(times, dtype=np.float64)
        if arr.size == 0:
            return 1.0
        mean = float(arr.mean())
        if mean <= 0.0:
            return 1.0
        return float(arr.max() / mean)

    @property
    def imbalance(self) -> float:
        """Measured load imbalance ``max/mean`` over per-thread CPU
        times — the empirical counterpart of the analytical engine's
        :attr:`~repro.machine.engine.RunResult.imbalance`."""
        return self._imbalance(self.thread_cpu_seconds)

    @property
    def wall_imbalance(self) -> float:
        """``max/mean`` over per-thread wall spans (includes scheduler
        and GIL waits; noisy on oversubscribed hosts)."""
        return self._imbalance(self.thread_wall_seconds)

    def stragglers(self, factor: float = 4.0) -> tuple[int, ...]:
        """Worker slots whose wall span exceeded ``factor`` times the
        median positive wall span — threads that *finished* but dragged
        the makespan (a chunk that never finishes surfaces as a
        ``timeout`` :class:`~repro.errors.ChunkFailure` via the
        deadline watchdog instead)."""
        walls = np.asarray(self.thread_wall_seconds, dtype=np.float64)
        positive = walls[walls > 0.0]
        if positive.size == 0:
            return ()
        median = float(np.median(positive))
        if median <= 0.0:
            return ()
        return tuple(
            int(i) for i in np.flatnonzero(walls > factor * median)
        )

    def summary(self) -> dict:
        """JSON-ready snapshot (tracer spans, bench rows)."""
        return {
            "nthreads": int(self.nthreads),
            "schedule": self.schedule,
            "dynamic": bool(self.dynamic),
            "wall_seconds": float(self.wall_seconds),
            "thread_wall_seconds": [float(t) for t in
                                    self.thread_wall_seconds],
            "thread_cpu_seconds": [float(t) for t in
                                   self.thread_cpu_seconds],
            "chunks_per_thread": [int(c) for c in self.chunks_per_thread],
            "imbalance": float(self.imbalance),
            "wall_imbalance": float(self.wall_imbalance),
            "stragglers": [int(s) for s in self.stragglers()],
        }


def _align_runs(runs: list[tuple[int, int, int]], align: int,
                nrows: int) -> list[tuple[int, int, int]]:
    """Snap run boundaries down to multiples of ``align``.

    Blocked/sorted execution formats (BCSR, SELL-C-sigma) regroup rows
    at a fixed granularity; splitting anywhere else changes their
    floating-point association. Interior cuts move down to the nearest
    ``align`` multiple (runs swallowed whole disappear), the final cut
    stays at ``nrows`` — so the cover is exact and every chunk's local
    regrouping reproduces the serial one bit-for-bit.
    """
    snapped: list[tuple[int, int, int]] = []
    prev = 0
    for _, hi, tid in runs:
        cut = nrows if hi == nrows else (hi // align) * align
        if cut <= prev:
            continue
        snapped.append((prev, cut, tid))
        prev = cut
    if prev < nrows:
        if snapped:
            lo, _, tid = snapped[-1]
            snapped[-1] = (lo, nrows, tid)
        else:
            snapped.append((0, nrows, runs[-1][2] if runs else 0))
    return snapped


def _partition_from_runs(runs: list[tuple[int, int, int]],
                         original: Partition
                         ) -> tuple[Partition, list[tuple[int, int, int]]]:
    """Rebuild a consistent :class:`Partition` after boundary snapping,
    renumbering surviving thread ids so they stay contiguous/leading.
    Returns the partition plus the runs rewritten with the new ids."""
    nrows = original.nrows
    remap: dict[int, int] = {}
    tor = np.empty(nrows, dtype=np.int32)
    renumbered = []
    for lo, hi, tid in runs:
        new = remap.setdefault(tid, len(remap))
        tor[lo:hi] = new
        renumbered.append((lo, hi, new))
    nthreads = max(1, len(remap))
    boundaries = None
    if original.boundaries is not None:
        boundaries = np.array(
            sorted({0, nrows} | {hi for _, hi, _ in runs}), dtype=np.int64
        )
    partition = Partition(nthreads, tor, kind=original.kind,
                          chunk_rows=original.chunk_rows,
                          boundaries=boundaries)
    return partition, renumbered


class _Chunk:
    """One contiguous row range, preprocessed for the wrapped kernel."""

    __slots__ = ("lo", "hi", "tid", "data")

    def __init__(self, lo: int, hi: int, tid: int, data):
        self.lo = lo
        self.hi = hi
        self.tid = tid
        self.data = data


class ParallelData:
    """Execution bundle of a :class:`ParallelKernel`: the partition, the
    per-chunk preprocessed row blocks, and a thread-local workspace."""

    __slots__ = ("csr", "partition", "chunks", "thread_chunks",
                 "workspace", "_full_data")

    def __init__(self, csr: CSRMatrix, partition: Partition,
                 chunks: list[_Chunk]):
        self.csr = csr
        self.partition = partition
        self.chunks = chunks
        # Chunk indices per owning thread, in row order (static seed
        # assignment; the dynamic path ignores ownership).
        self.thread_chunks: list[list[int]] = [
            [] for _ in range(partition.nthreads)
        ]
        for ci, chunk in enumerate(chunks):
            self.thread_chunks[chunk.tid].append(ci)
        self.workspace = Workspace(thread_local=True)
        self._full_data = None

    @property
    def nthreads(self) -> int:
        return self.partition.nthreads

    @property
    def nrows(self) -> int:
        return self.csr.nrows

    @property
    def ncols(self) -> int:
        return self.csr.ncols

    def full_data(self, kernel: Kernel):
        """The wrapped kernel's whole-matrix data (cost plane only),
        built lazily so pure numeric use never pays for it."""
        if self._full_data is None:
            self._full_data = kernel.preprocess(self.csr)
        return self._full_data

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"<ParallelData {self.partition.kind} t={self.nthreads} "
            f"chunks={len(self.chunks)} {self.csr!r}>"
        )


class ParallelKernel(Kernel):
    """Execute any wrapped :class:`~repro.kernels.base.Kernel` on a
    thread pool, one contiguous row block per task.

    Composes with :class:`~repro.engine.guard.GuardedKernel` in both
    orders: ``GuardedKernel(ParallelKernel(k))`` guards the whole
    parallel apply (a worker exception propagates out and triggers the
    serial CSR fallback), while ``ParallelKernel(GuardedKernel(k))``
    guards each row block individually.
    """

    def __init__(self, inner: Kernel, nthreads: int,
                 schedule: str | None = None,
                 chunk_rows: int | None = None):
        if int(nthreads) < 1:
            raise ValueError(f"nthreads must be >= 1, got {nthreads}")
        self.inner = inner
        self.nthreads = int(nthreads)
        self.schedule = schedule or getattr(inner, "schedule",
                                            "balanced-nnz")
        self.chunk_rows = chunk_rows
        self.name = f"{inner.name}@par/{self.schedule}/t{self.nthreads}"
        self.optimizations = tuple(getattr(inner, "optimizations", ())) + (
            "parallel",
        )
        #: measurement of the most recent apply/apply_multi.
        self.last_measurement: ParallelMeasurement | None = None

    @property
    def config(self) -> ParallelConfig:
        return ParallelConfig(self.nthreads, self.schedule, self.chunk_rows)

    # -- preprocessing -------------------------------------------------

    def preprocess(self, csr: CSRMatrix) -> ParallelData:
        kwargs = {}
        if self.chunk_rows is not None:
            kwargs["chunk_rows"] = self.chunk_rows
        partition = make_partition(csr, self.nthreads, self.schedule,
                                   **kwargs)
        align = int(getattr(self.inner, "row_align", 1) or 1)
        runs = partition.contiguous_runs()
        if align > 1:
            runs = _align_runs(runs, align, csr.nrows)
            partition, runs = _partition_from_runs(runs, partition)
        chunks = [
            _Chunk(lo, hi, tid,
                   self.inner.preprocess(csr.submatrix_rows(lo, hi)))
            for lo, hi, tid in runs
        ]
        return ParallelData(csr, partition, chunks)

    def preprocessing_seconds(self, csr: CSRMatrix,
                              machine: MachineSpec) -> float:
        return self.inner.preprocessing_seconds(csr, machine)

    # -- numeric plane -------------------------------------------------

    def apply(self, data: ParallelData, x: np.ndarray,
              out: np.ndarray | None = None, workspace=None,
              deadline_seconds: float | None = None) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        if x.shape != (data.ncols,):
            raise ValueError(
                f"x must have shape ({data.ncols},), got {x.shape}"
            )
        if out is None:
            y = np.empty(data.nrows, dtype=np.float64)
        else:
            y = check_out_buffer(out, (data.nrows,), operand=x)
        x = contiguous_operand(x, workspace, "parallel.x")
        # Validate once here; each chunk's y[lo:hi] slice stays a
        # trusted view, so the inner kernel skips re-validating the
        # same buffer nthreads times per apply.
        self._supervised(data, x, trust_out_buffer(y), multi=False,
                         caller_out=out is not None,
                         deadline_seconds=deadline_seconds)
        return y

    def apply_multi(self, data: ParallelData, X: np.ndarray,
                    out: np.ndarray | None = None,
                    workspace=None,
                    deadline_seconds: float | None = None) -> np.ndarray:
        X = np.ascontiguousarray(X, dtype=np.float64)
        if X.ndim != 2 or X.shape[0] != data.ncols:
            raise ValueError(
                f"X must have shape ({data.ncols}, k), got {X.shape}"
            )
        k = X.shape[1]
        if out is None:
            Y = np.empty((data.nrows, k), dtype=np.float64)
        else:
            Y = check_out_buffer(out, (data.nrows, k), operand=X)
        self._supervised(data, X, trust_out_buffer(Y), multi=True,
                         caller_out=out is not None,
                         deadline_seconds=deadline_seconds)
        return Y

    def _supervised(self, data: ParallelData, x: np.ndarray,
                    y: np.ndarray, *, multi: bool, caller_out: bool,
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
            self._execute(data, x, target, multi=multi,
                          deadline_seconds=deadline_seconds)
        except ParallelExecutionError:
            if caller_out:
                y.fill(np.nan)
            raise
        if target is not y:
            np.copyto(y, target)
        return y

    def _run_chunk(self, chunk: _Chunk, x: np.ndarray, y: np.ndarray,
                   *, multi: bool, workspace: Workspace) -> None:
        # y[lo:hi] is a C-contiguous view (leading-axis slice of a
        # C-contiguous array), disjoint from every other chunk's slice.
        out = y[chunk.lo : chunk.hi]
        if multi:
            self.inner.apply_multi(chunk.data, x, out=out,
                                   workspace=workspace)
        else:
            self.inner.apply(chunk.data, x, out=out, workspace=workspace)

    def _execute(self, data: ParallelData, x: np.ndarray,
                 y: np.ndarray, *, multi: bool,
                 deadline_seconds: float | None = None
                 ) -> ParallelMeasurement:
        nthreads = data.nthreads
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
                    chunk = data.chunks[ci]
                    current[slot] = ci
                    try:
                        self._run_chunk(chunk, x, y, multi=multi,
                                        workspace=data.workspace)
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

        if data.partition.is_dynamic:
            queue = deque(range(len(data.chunks)))

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
                run_chunks(slot, data.thread_chunks[slot])

        # A deadline always goes through the pool (even at one thread)
        # so the watchdog can abandon a hung chunk instead of blocking
        # the caller inline forever.
        if nthreads == 1 and deadline_seconds is None:
            worker(0)
        else:
            pool = get_executor(nthreads)
            futures = [pool.submit(worker, slot) for slot in range(nthreads)]
            if deadline_seconds is None:
                for future in futures:
                    future.result()  # chunk faults are captured; this
                    # only propagates errors in the worker loop itself
            else:
                remaining = deadline_seconds - (
                    time.perf_counter() - started
                )
                done, not_done = futures_wait(
                    futures, timeout=max(remaining, 0.0)
                )
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
                            chunk = data.chunks[ci]
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
                        nthreads=nthreads, schedule=self.schedule,
                        wall_seconds=time.perf_counter() - started,
                        deadline_seconds=deadline_seconds,
                    )
                for future in futures:
                    future.result()

        if failures:
            raise ParallelExecutionError(
                "worker-fault", tuple(failures),
                nthreads=nthreads, schedule=self.schedule,
                wall_seconds=time.perf_counter() - started,
                deadline_seconds=deadline_seconds,
            )

        measurement = ParallelMeasurement(
            nthreads=nthreads,
            schedule=self.schedule,
            dynamic=data.partition.is_dynamic,
            wall_seconds=time.perf_counter() - started,
            thread_wall_seconds=tuple(walls),
            thread_cpu_seconds=tuple(cpus),
            chunks_per_thread=tuple(counts),
        )
        self.last_measurement = measurement
        return measurement

    # -- cost plane & scheduling --------------------------------------

    def cost(self, data: ParallelData, machine: MachineSpec,
             partition: Partition) -> KernelCost:
        return self.inner.cost(data.full_data(self.inner), machine,
                               partition)

    def partition(self, data: ParallelData, nthreads: int) -> Partition:
        if int(nthreads) == self.nthreads:
            return data.partition
        kwargs = {}
        if self.chunk_rows is not None:
            kwargs["chunk_rows"] = self.chunk_rows
        return make_partition(data.csr, nthreads, self.schedule, **kwargs)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"<ParallelKernel t={self.nthreads} {self.schedule!r} "
            f"{self.inner!r}>"
        )

