"""SELL-C-sigma SpMV kernel (extension payload, like BCSR).

Cost plane: chunks of ``C`` rows execute in SIMD lockstep — unit-stride
loads of values/indices, one gather per slot-row — so per-chunk cost is
``width`` SIMD iterations regardless of individual row lengths. The
price is the padding slots (streamed and computed on) and a permuted
output vector (one extra pass over y).
"""

from __future__ import annotations

import weakref

import numpy as np

from ..formats import CSRMatrix
from ..formats.sellcs import SellCSigmaMatrix
from ..machine import KernelCost, MachineSpec
from ..machine.cache import stream_cost, stream_counts
from ..sched import Partition
from ..sched.policies import _balanced_offsets
from .base import Kernel
from .preprocess_cost import JIT_CODEGEN_SECONDS, pass_seconds

__all__ = ["SellCSigmaSpMV"]

#: :func:`~repro.machine.cache.stream_counts` of each matrix's x stream,
#: per line width: one pass per matrix object, as
#: :func:`~repro.machine.cache.x_access_stats` does for CSR.
_STREAM_COUNTS: "weakref.WeakKeyDictionary[SellCSigmaMatrix, dict]" = (
    weakref.WeakKeyDictionary()
)


class SellCSigmaSpMV(Kernel):
    """SELL-C-sigma SpMV; ``chunk`` defaults to the SIMD width at cost
    time (the format is built with the constructor's chunk)."""

    optimizations = ("sell-c-sigma", "vectorization")
    schedule = "balanced-nnz"

    def __init__(self, chunk: int = 8, sigma: int | None = None):
        if chunk < 1:
            raise ValueError("chunk must be >= 1")
        self.chunk = int(chunk)
        self.sigma = sigma
        self.name = f"sell-{self.chunk}-{sigma if sigma else 32 * chunk}"
        # The sigma sort window is the regrouping granularity: splits
        # at window multiples reproduce the serial chunking exactly.
        self.row_align = max(int(sigma) if sigma else 32 * self.chunk,
                             self.chunk)

    # -- preprocessing ----------------------------------------------------

    def preprocess(self, csr: CSRMatrix) -> SellCSigmaMatrix:
        return SellCSigmaMatrix.from_csr(csr, chunk=self.chunk,
                                         sigma=self.sigma)

    def preprocessing_seconds(self, csr: CSRMatrix, machine: MachineSpec) -> float:
        # sigma-window sorts (short keys) + full array re-layout.
        nbytes = csr.nnz * (12.0 * 2) + 16.0 * csr.nrows
        return pass_seconds(nbytes, machine) + JIT_CODEGEN_SECONDS

    # -- numeric plane ------------------------------------------------------

    def apply(self, data: SellCSigmaMatrix, x: np.ndarray,
              out: np.ndarray | None = None, workspace=None) -> np.ndarray:
        return data.matvec(x, out=out, workspace=workspace)

    def apply_multi(self, data: SellCSigmaMatrix, X: np.ndarray,
                    out: np.ndarray | None = None,
                    workspace=None) -> np.ndarray:
        return data.matmat(X, out=out, workspace=workspace)

    # -- scheduling -----------------------------------------------------------

    def partition(self, data: SellCSigmaMatrix, nthreads: int) -> Partition:
        # balance stored slots across threads over chunks
        return _balanced_offsets(data.chunk_ptr, nthreads)

    def _schedulable(self, data):  # pragma: no cover
        raise NotImplementedError("SellCSigmaSpMV builds its own partition")

    # -- cost plane ---------------------------------------------------------------

    def cost(self, data: SellCSigmaMatrix, machine: MachineSpec,
             partition: Partition) -> KernelCost:
        m = machine
        partition.validate_covers(data.nchunks)
        C = data.chunk

        # Moments per thread: chunks and slot rows (summed widths).
        chunks = partition.thread_counts()
        width = partition.thread_counts(data.chunk_len)

        # One SIMD iteration per slot-row processes min(C, simd) lanes.
        lanes_per_iter = min(C, m.simd_doubles)
        iters_per_row = np.ceil(C / lanes_per_iter)
        per_iter = (
            m.vec_iter_base_cycles
            + m.gather_cycles_per_elem * lanes_per_iter
        )
        cycles = (m.vec_row_overhead_cycles * chunks
                  + width * iters_per_row * per_iter)

        # Traffic: padded slots stream fully; + chunk metadata; + the
        # y permutation writeback (16 B per row: load + store).
        slots = width * C
        stream_bytes = slots * 12.0 + (16.0 + 16.0 * C) * chunks

        # x gathers follow the stored (chunk-column-major) stream;
        # padding slots hit x[0], which is resident. The aggregate
        # latency/traffic is split over threads by their stored slots.
        total_slots = max(float(slots.sum()), 1.0)
        share = slots / total_slots
        agg = _aggregate_x_cost(data, m)
        latency = agg["latency_ns"] * share
        stream_bytes += agg["dram_bytes"] * share

        # Chunk costs grow with the width: the costliest chunk is the
        # widest.
        max_unit_cycles = max_unit_latency = 0.0
        if data.nchunks:
            widest = int(data.chunk_len.max())
            max_unit_cycles = float(m.vec_row_overhead_cycles
                                    + widest * iters_per_row * per_iter)
            max_unit_latency = float(
                agg["latency_ns"] * (float(widest * C) / total_slots))

        flops = 2.0 * data.nnz
        ws = data.total_nbytes() + 8.0 * (data.nrows + data.ncols)
        return KernelCost(
            compute_cycles=cycles,
            stream_bytes=stream_bytes,
            latency_ns=latency,
            mlp=m.mlp,
            flops=flops,
            working_set_bytes=ws,
            max_unit_cycles=max_unit_cycles,
            max_unit_latency_ns=max_unit_latency,
        )


def _aggregate_x_cost(data: SellCSigmaMatrix, machine: MachineSpec) -> dict:
    """Total x latency/traffic of the stored gather stream (issue
    order, padding slots excluded), from its counts memoized per matrix
    object and line width."""
    per_matrix = _STREAM_COUNTS.setdefault(data, {})
    line = machine.line_elems
    if line not in per_matrix:
        cols = data.colind[data.values != 0.0]
        per_matrix[line] = stream_counts(cols, data.ncols, line)
    return stream_cost(per_matrix[line], machine)
