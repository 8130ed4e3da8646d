"""BCSR (register-blocked) SpMV kernel — plug-and-play pool payload.

Demonstrates the paper's extensibility claim with an optimization that
is *not* a flag on the CSR kernel: a genuinely different format and
inner loop. Registered under the name ``"bcsr"`` (see
:func:`repro.kernels.registry.register_pool_optimization`), it can be
mapped to the MB class as an alternative to delta compression — the A6
ablation quantifies when each wins.

Cost plane: one column index per block (index traffic / ``r^2``), a
dense ``r x r`` register tile per block (SIMD-friendly, one gather
address per block instead of one per element), but all fill-in zeros
are both computed on and streamed.
"""

from __future__ import annotations

import numpy as np

from ..formats import CSRMatrix
from ..formats.bcsr import BCSRMatrix
from ..machine import KernelCost, MachineSpec
from ..machine.cache import max_row_miss_latency
from ..sched import Partition, make_partition
from .base import Kernel
from .costmodel import thread_x_cost
from .preprocess_cost import JIT_CODEGEN_SECONDS, pass_seconds

__all__ = ["BCSRSpMV"]


class BCSRSpMV(Kernel):
    """Register-blocked SpMV with square blocks of size ``block``."""

    optimizations = ("register-blocking", "vectorization")
    schedule = "balanced-nnz"

    def __init__(self, block: int = 2):
        if block < 1:
            raise ValueError("block must be >= 1")
        self.block = int(block)
        self.name = f"bcsr{self.block}x{self.block}"
        # Rows regroup into r-row blocks: only block-aligned splits
        # preserve the per-row addend association.
        self.row_align = self.block

    # -- preprocessing -----------------------------------------------------

    def preprocess(self, csr: CSRMatrix) -> BCSRMatrix:
        return BCSRMatrix.from_csr(csr, block=self.block)

    def preprocessing_seconds(self, csr: CSRMatrix, machine: MachineSpec) -> float:
        # unique-key sort + dense block scatter: ~3 passes over the
        # nonzeros plus writing the (fill-inflated) block array.
        approx_fill = 2.0  # conservative estimate without converting
        nbytes = csr.nnz * (12.0 + approx_fill * 8.0) + csr.rowptr.nbytes
        return pass_seconds(nbytes, machine) + JIT_CODEGEN_SECONDS

    # -- numeric plane -------------------------------------------------------

    def apply(self, data: BCSRMatrix, x: np.ndarray,
              out: np.ndarray | None = None, workspace=None) -> np.ndarray:
        return data.matvec(x, out=out, workspace=workspace)

    def apply_multi(self, data: BCSRMatrix, X: np.ndarray,
                    out: np.ndarray | None = None,
                    workspace=None) -> np.ndarray:
        return data.matmat(X, out=out, workspace=workspace)

    # -- scheduling ------------------------------------------------------------

    def partition(self, data: BCSRMatrix, nthreads: int) -> Partition:
        # balance stored blocks across threads over block rows
        return make_partition(data.block_pattern(), nthreads, "balanced-nnz")

    def _schedulable(self, data: BCSRMatrix):  # pragma: no cover
        raise NotImplementedError("BCSRSpMV builds its own partition")

    # -- cost plane ---------------------------------------------------------------

    def cost(self, data: BCSRMatrix, machine: MachineSpec,
             partition: Partition) -> KernelCost:
        r = data.block
        m = machine
        pattern = data.block_pattern()
        partition.validate_covers(pattern.nrows)

        # Moments per thread: block rows and stored blocks.
        brows = partition.thread_counts()
        blocks = partition.thread_counts(offsets=data.block_rowptr)

        # Compute: per block, r SIMD rows of r elements each — dense
        # FMA tile with a single x-block load (one address per block).
        simd_iters_per_block = r * max(np.ceil(r / m.simd_doubles), 1.0)
        per_block_cycles = (
            m.vec_iter_base_cycles * simd_iters_per_block
            + m.gather_cycles_per_elem * r       # one gather per block row of x
        )
        cycles = m.vec_row_overhead_cycles * brows + per_block_cycles * blocks

        # Traffic: dense tiles (incl. fill) + one 4B index per block;
        # rowptr (8 B) and y (16 B) per block row.
        stream_bytes = (r * r * 8.0 + 4.0) * blocks + (8.0 + 16.0) * brows

        # x behaviour at block granularity via the block-coordinate
        # pattern.
        latency, x_bytes = thread_x_cost(pattern, m, partition)
        stream_bytes += x_bytes

        # Block-row cycles grow with the blocks: the costliest block
        # row is the one with the most.
        max_unit_cycles = 0.0
        if pattern.nrows:
            most = int(np.diff(data.block_rowptr).max())
            max_unit_cycles = float(m.vec_row_overhead_cycles
                                    + most * per_block_cycles)

        flops = 2.0 * data.nnz  # useful flops exclude fill-in
        ws = data.total_nbytes() + 8.0 * (data.nrows + data.ncols)

        return KernelCost(
            compute_cycles=cycles,
            stream_bytes=stream_bytes,
            latency_ns=latency,
            mlp=m.mlp,
            flops=flops,
            working_set_bytes=ws,
            max_unit_cycles=max_unit_cycles,
            max_unit_latency_ns=max_row_miss_latency(pattern, m),
        )
