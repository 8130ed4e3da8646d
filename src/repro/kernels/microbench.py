"""Micro-benchmark kernels used by the per-class performance bounds.

Two of the paper's bounds (Section III-B) are defined operationally, by
running a *modified* SpMV kernel:

* ``P_ML`` — :class:`RegularizedColindSpMV`: every ``colind`` entry is
  replaced by the current row index, converting all x accesses into
  repeated hits on one resident element. Index loads, loop structure
  and flop count are unchanged, so any performance delta versus the
  baseline isolates the cost of irregular x accesses.
* ``P_CMP`` — :class:`UnitStrideSpMV`: indirection is removed entirely;
  ``colind`` is neither loaded nor used and x is accessed unit-stride.
  The now-regular loop is auto-vectorizable, so this (very loose)
  bound exposes the compute ceiling.

Both kernels are *numerically different* from SpMV by construction —
they are measurement instruments, not solvers.

The module also hosts the host-side micro-timing harness
(:func:`time_callable`) that
:func:`repro.model.profile.calibrate` builds machine profiles from.
Every timing warms up before measuring and reports the median of k
samples — a single cold sample folds first-touch page faults, lazy
imports and cache fills into the "kernel time" and would poison the
calibration scales.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from ..formats import CSRMatrix
from ..machine import KernelCost, MachineSpec
from ..sched import Partition
from .base import Kernel
from .costmodel import spmv_cost

__all__ = [
    "RegularizedColindSpMV",
    "UnitStrideSpMV",
    "MicroTiming",
    "time_callable",
]


@dataclass(frozen=True)
class MicroTiming:
    """One micro-benchmark timing: warmed, median-of-k."""

    median_seconds: float
    best_seconds: float
    samples: tuple[float, ...]
    warmup: int

    @property
    def repeats(self) -> int:
        return len(self.samples)


def time_callable(fn, *, repeats: int = 7,
                  warmup: int = 2) -> MicroTiming:
    """Time ``repeats`` calls of ``fn()`` after ``warmup`` discarded calls.

    The warmup calls run ``fn`` end to end (first-touch allocation,
    cache fill, any lazy setup) but contribute nothing to the
    statistics; the reported figure is the **median** sample, which is
    robust against one preempted repeat in a way neither a single
    sample nor the mean is. ``best_seconds`` (the minimum) is kept for
    scaling studies where noise only ever adds.
    """
    if repeats < 1:
        raise ValueError("repeats must be >= 1")
    if warmup < 0:
        raise ValueError("warmup must be >= 0")
    for _ in range(warmup):
        fn()
    samples = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - t0)
    return MicroTiming(
        median_seconds=float(np.median(samples)),
        best_seconds=float(np.min(samples)),
        samples=tuple(samples),
        warmup=warmup,
    )


class _RowSumMicroKernel(Kernel):
    """Numeric plane shared by the two bound micro-kernels.

    With every ``colind`` entry replaced by the row index (P_ML) or
    with indirection dropped for a unit-stride x (P_CMP), row ``i``
    computes ``y[i] = (sum_j vals_ij) * x[i]``.
    """

    def apply(self, data: CSRMatrix, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        if x.shape != (data.ncols,):
            raise ValueError(
                f"x must have shape ({data.ncols},), got {x.shape}"
            )
        row_sums = np.zeros(data.nrows, dtype=np.float64)
        lengths = np.diff(data.rowptr)
        nonempty = np.flatnonzero(lengths > 0)
        if nonempty.size:
            row_sums[nonempty] = np.add.reduceat(
                data.values, data.rowptr[nonempty]
            )
        return row_sums * x[: data.nrows]


class RegularizedColindSpMV(_RowSumMicroKernel):
    """P_ML micro-kernel: irregular x accesses made regular."""

    name = "microbench-regularized"
    optimizations = ("regularized-colind",)

    def cost(self, data: CSRMatrix, machine: MachineSpec,
             partition: Partition) -> KernelCost:
        return spmv_cost(
            data, machine, partition,
            vectorize=False,
            x_mode="sequential",
        )


class UnitStrideSpMV(_RowSumMicroKernel):
    """P_CMP micro-kernel: indirection removed, unit-stride x access."""

    name = "microbench-unitstride"
    optimizations = ("unit-stride",)

    def cost(self, data: CSRMatrix, machine: MachineSpec,
             partition: Partition) -> KernelCost:
        # The bench still *allocates* the full CSR (it only skips the
        # colind loads), so the bandwidth level is chosen for the full
        # SpMV working set — only the traffic shrinks.
        full_ws = data.total_nbytes() + 8.0 * (data.nrows + data.ncols)
        return spmv_cost(
            data, machine, partition,
            vectorize=True,          # regular loops auto-vectorize
            index_bytes_per_nnz=0.0,  # colind not even loaded
            x_mode="unit",
            working_set_bytes=full_ws,
        )
