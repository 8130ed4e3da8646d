"""Shared cost accounting for all CSR-family SpMV kernels.

The machine model (DESIGN.md Section 6) needs, per thread: core compute
cycles, streamed memory bytes, and exposed miss latency.
:func:`row_compute_cycles` defines a row's cycles from its nonzeros and
the kernel's optimization flags; a row streams its values and column
indices, one rowptr entry, its y entry and the x lines the cache model
charges. Within a row category (empty or not; long or short under
unrolling) each is affine in a few integers of the row: 1, its
nonzeros, its SIMD iterations and its possible x misses.
:func:`spmv_cost` therefore sums those integers per thread, exactly,
and evaluates the affine forms once per thread.

x-access modes
--------------
``"gather"``
    Normal SpMV: ``x[colind[j]]`` — irregular, costed by the cache
    model in :mod:`repro.machine.cache`.
``"sequential"``
    The paper's P_ML micro-kernel: ``colind`` entries are all set to
    the current row index, so the gather hits one resident element per
    row. Index loads still happen; miss latency vanishes.
``"unit"``
    The paper's P_CMP micro-kernel: indirection removed entirely —
    ``colind`` is not even loaded and x is accessed unit-stride. The
    now-regular inner loop is assumed auto-vectorized by the compiler
    (the reason matrices with dense rows "improve with vectorization"
    show ``P_CMP`` headroom).
"""

from __future__ import annotations

import numpy as np

from .._validation import check_in
from ..formats import CSRMatrix
from ..machine import KernelCost, MachineSpec
from ..machine.cache import max_row_miss_latency, x_access_stats, x_miss_cost
from ..sched import Partition

__all__ = ["row_compute_cycles", "thread_x_cost", "spmv_cost"]

#: Vector-load cost per element when x accesses are regular (no gather).
_REGULAR_LOAD_CYCLES_PER_ELEM = 0.15

#: Rows at least this many SIMD iterations long benefit from unrolling.
_UNROLL_MIN_ITERS = 4

#: Share of the vector row overhead an unrolled (long) row still pays.
_UNROLLED_ROW_OVERHEAD = 0.7

#: y traffic per row: write + read-for-ownership (write-allocate).
_Y_BYTES_PER_ROW = 16.0

#: rowptr traffic per row (int64 offsets, one new entry per row).
_ROWPTR_BYTES_PER_ROW = 8.0


def _elem_access_cycles(machine: MachineSpec, x_mode: str) -> float:
    """Per-element x load cost: a gather, or a regular vector load."""
    if x_mode == "gather":
        return machine.gather_cycles_per_elem
    return _REGULAR_LOAD_CYCLES_PER_ELEM


def _scalar_elem_cycles(machine: MachineSpec, x_mode: str) -> float:
    """Scalar cycles per nonzero. Regular access: address arithmetic
    is simpler and the load hits L1; discount part of the cost."""
    per_elem = machine.scalar_cycles_per_nnz
    if x_mode != "gather":
        per_elem = max(per_elem - 1.0, 0.5)
    return per_elem


def _scalar_unroll_speedup(machine: MachineSpec) -> float:
    """Speedup of unrolling a long scalar row: half the vector one."""
    return 0.5 + 0.5 * machine.unroll_speedup


def row_compute_cycles(
    row_nnz: np.ndarray,
    machine: MachineSpec,
    *,
    vectorize: bool = False,
    unroll: bool = False,
    prefetch: bool = False,
    decode: bool = False,
    x_mode: str = "gather",
) -> np.ndarray:
    """Core compute cycles per row for the configured inner loop."""
    check_in("x_mode", x_mode, ("gather", "sequential", "unit"))
    nnz = row_nnz.astype(np.float64)
    m = machine

    if vectorize:
        iters = np.ceil(nnz / m.simd_doubles)
        per_iter = (m.vec_iter_base_cycles
                    + _elem_access_cycles(m, x_mode) * m.simd_doubles)
        body = iters * per_iter
        overhead = np.full_like(nnz, m.vec_row_overhead_cycles)
        if unroll:
            long = iters >= _UNROLL_MIN_ITERS
            body = np.where(long, body / m.unroll_speedup, body)
            overhead = np.where(long, overhead * _UNROLLED_ROW_OVERHEAD,
                                overhead)
        cycles = overhead + body
    else:
        body = nnz * _scalar_elem_cycles(m, x_mode)
        if unroll:
            long = nnz >= 2 * m.simd_doubles
            body = np.where(long, body / _scalar_unroll_speedup(m), body)
        cycles = m.row_overhead_cycles + body

    if prefetch:
        cycles = cycles + nnz * m.prefetch_issue_cycles
    if decode:
        cycles = cycles + nnz * m.decode_cycles_per_nnz
    # Empty rows still pay the (scalar) loop bookkeeping.
    return np.where(row_nnz > 0, cycles,
                    float(m.row_overhead_cycles))


def thread_x_cost(csr: CSRMatrix, machine: MachineSpec,
                  partition: Partition, *, software_prefetch: bool = False):
    """Exposed x-miss latency (ns, before MLP) and x DRAM bytes per
    thread of ``csr``'s row-major x stream: the cache model's cost of
    each thread's exact totals of the per-row x-access counts."""
    stats = x_access_stats(csr, machine.line_elems)
    return x_miss_cost(
        csr, machine,
        partition.thread_counts(stats.potential_misses),
        partition.thread_counts(stats.strided_potential),
        software_prefetch=software_prefetch,
    )


def spmv_cost(
    csr_structure: CSRMatrix,
    machine: MachineSpec,
    partition: Partition,
    *,
    vectorize: bool = False,
    unroll: bool = False,
    prefetch: bool = False,
    decode: bool = False,
    index_bytes_per_nnz: float = 4.0,
    extra_index_bytes_per_row: float = 0.0,
    x_mode: str = "gather",
    flops: float | None = None,
    working_set_bytes: float | None = None,
    extra_seconds: np.ndarray | None = None,
) -> KernelCost:
    """Assemble a :class:`~repro.machine.engine.KernelCost`.

    ``csr_structure`` supplies the row structure and, for
    ``x_mode="gather"``, the column pattern for the cache model; the
    byte accounting can be overridden (``index_bytes_per_nnz``) for
    compressed index formats whose row structure matches the CSR.

    Each per-thread total is the per-row cost (the cycles of
    :func:`row_compute_cycles`, the streamed bytes and the cache
    model's latency) summed over the thread's rows, computed from the
    thread's exact integer row moments. The largest row costs are
    evaluated at each row category's longest row.
    """
    check_in("x_mode", x_mode, ("gather", "sequential", "unit"))
    csr = csr_structure
    m = machine
    partition.validate_covers(csr.nrows)
    W = m.simd_doubles
    # Per-row temporaries stay narrow (int32 lengths below 2**31
    # nonzeros, bool masks): they set the cost call's memory peak.
    row_nnz = np.subtract(csr.rowptr[1:], csr.rowptr[:-1],
                          dtype=np.int32 if csr.nnz < 2**31 else np.int64)

    # Moments per thread: rows, empty rows, nonzeros.
    rows = partition.thread_counts()
    nnz = partition.thread_counts(offsets=csr.rowptr)
    n_empty = csr.nrows - np.count_nonzero(row_nnz)

    # Compute cycles: row_compute_cycles' constants, folded into one
    # coefficient per moment. Empty rows pay the scalar row overhead.
    per_nnz = ((m.prefetch_issue_cycles if prefetch else 0.0)
               + (m.decode_cycles_per_nnz if decode else 0.0))
    n_max = int(row_nnz.max(initial=0))
    # The shortest long row under unrolling: _UNROLL_MIN_ITERS SIMD
    # iterations, or two vectors' worth of scalar elements.
    long_from = (_UNROLL_MIN_ITERS - 1) * W + 1 if vectorize else 2 * W
    has_long = unroll and n_max >= long_from
    if vectorize:
        vro = m.vec_row_overhead_cycles
        per_iter = m.vec_iter_base_cycles + _elem_access_cycles(m, x_mode) * W
        iters = row_nnz + (W - 1)
        iters //= W
        cycles = vro * rows + per_iter * partition.thread_counts(iters)
        if per_nnz:
            cycles += per_nnz * nnz
        if n_empty:
            cycles += (m.row_overhead_cycles - vro) * partition.thread_counts(
                row_nnz == 0)
        if has_long:
            long = iters >= _UNROLL_MIN_ITERS
            cycles += ((vro * _UNROLLED_ROW_OVERHEAD - vro)
                       * partition.thread_counts(long))
            iters *= long
            cycles += ((per_iter / m.unroll_speedup - per_iter)
                       * partition.thread_counts(iters))
    else:
        per_elem = _scalar_elem_cycles(m, x_mode)
        cycles = m.row_overhead_cycles * rows + (per_elem + per_nnz) * nnz
        if has_long:
            long_nnz = row_nnz * (row_nnz >= long_from)
            cycles += ((per_elem / _scalar_unroll_speedup(m) - per_elem)
                       * partition.thread_counts(long_nnz))

    # Within a category cycles grow with nnz, so the costliest row is
    # the longest of its category: the longest row, the longest short
    # row under unrolling, and an empty row.
    longest = [n_max] + ([0] if n_empty else [])
    if has_long:
        short_max = int((row_nnz * (row_nnz < long_from)).max())
        if short_max:
            longest.append(short_max)
    max_unit_cycles = 0.0
    if csr.nrows:
        max_unit_cycles = float(row_compute_cycles(
            np.array(longest), m, vectorize=vectorize, unroll=unroll,
            prefetch=prefetch, decode=decode, x_mode=x_mode,
        ).max())

    # Streamed bytes: values and indices per nonzero; rowptr, any
    # out-of-line index bytes and y per row; x's DRAM lines under a
    # gather, else one resident element per row. Exposed x-miss latency.
    stream_bytes = (
        (8.0 + index_bytes_per_nnz) * nnz
        + (_ROWPTR_BYTES_PER_ROW + extra_index_bytes_per_row
           + _Y_BYTES_PER_ROW) * rows
    )
    if x_mode == "gather":
        latency, x_bytes = thread_x_cost(csr, m, partition,
                                         software_prefetch=prefetch)
        stream_bytes += x_bytes
        max_unit_latency = max_row_miss_latency(csr, m)
    else:
        latency = np.zeros(partition.nthreads)
        stream_bytes += 8.0 * rows
        max_unit_latency = 0.0

    if flops is None:
        flops = 2.0 * csr.nnz
    if working_set_bytes is None:
        a_bytes = float(
            csr.nnz * (8.0 + index_bytes_per_nnz)
            + csr.nrows
            * (_ROWPTR_BYTES_PER_ROW + extra_index_bytes_per_row)
        )
        working_set_bytes = a_bytes + 8.0 * (csr.nrows + csr.ncols)

    return KernelCost(
        compute_cycles=cycles,
        stream_bytes=stream_bytes,
        latency_ns=latency,
        mlp=machine.mlp_prefetch if prefetch else machine.mlp,
        flops=float(flops),
        working_set_bytes=float(working_set_bytes),
        extra_seconds=extra_seconds,
        max_unit_cycles=max_unit_cycles,
        max_unit_latency_ns=max_unit_latency,
    )
