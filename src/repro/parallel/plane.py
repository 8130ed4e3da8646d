"""Configuration, chunking and measurement of the parallel plane.

:class:`repro.engine.ParallelExecutor` executes
:class:`~repro.sched.base.Partition` objects for real; this module holds
what it is built from and what it reports:

* :class:`ParallelConfig` — the declarative width/schedule/chunking
  triple folded into plan-cache keys and the demotion registry;
* :func:`build_chunks` — the partition cut into contiguous row runs,
  each a zero-copy row window (``csr.submatrix_rows``) preprocessed
  once by the executed kernel;
* :class:`ParallelMeasurement` — the measured per-thread clocks of one
  parallel apply.

Numerics are bit-identical to the serial kernels by construction: every
chunk is a contiguous row range, a row's sum is computed by exactly one
chunk from that row's own nonzeros in their stored order, and each
result lands in its own ``out`` slice — no cross-thread reduction ever
happens (a long row stays whole inside one chunk; the decomposed
format's cooperative long-row split is only priced, not executed).
Blocked/sorted formats regroup rows at a fixed granularity
(``Kernel.row_align``), so run boundaries snap to it.

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

from dataclasses import dataclass

import numpy as np

from ..formats import CSRMatrix
from ..sched import Partition, make_partition

__all__ = [
    "ParallelConfig",
    "ParallelMeasurement",
    "build_chunks",
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
    """Measured per-thread clocks of one parallel apply.

    One clock pair per slot (one worker's share of the partition).
    Slot 0's clocks are taken on the calling thread, which runs that
    slot itself unless a deadline sent every slot to the pool. So are
    the clocks of any slot the pool had not started by the time the
    caller finished slot 0, since the caller runs that slot too.
    """

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
        times — the empirical counterpart of the simulated
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
    """One contiguous row range, preprocessed for the executed kernel."""

    __slots__ = ("lo", "hi", "tid", "data")

    def __init__(self, lo: int, hi: int, tid: int, data):
        self.lo = lo
        self.hi = hi
        self.tid = tid
        self.data = data


def build_chunks(csr: CSRMatrix, kernel, config: ParallelConfig
                 ) -> tuple[Partition, list[_Chunk]]:
    """Partition ``csr`` as ``config`` says and preprocess one zero-copy
    row window per contiguous run.

    Runs snap to ``kernel.row_align`` when the kernel regroups rows, and
    the returned partition is the one actually executed: its width may
    be below ``config.nthreads`` when the matrix has fewer rows to share.
    """
    kwargs = {}
    if config.chunk_rows is not None:
        kwargs["chunk_rows"] = config.chunk_rows
    partition = make_partition(csr, config.nthreads, config.schedule,
                               **kwargs)
    align = int(getattr(kernel, "row_align", 1) or 1)
    runs = partition.contiguous_runs()
    if align > 1:
        runs = _align_runs(runs, align, csr.nrows)
        partition, runs = _partition_from_runs(runs, partition)
    chunks = [
        _Chunk(lo, hi, tid, kernel.preprocess(csr.submatrix_rows(lo, hi)))
        for lo, hi, tid in runs
    ]
    return partition, chunks
