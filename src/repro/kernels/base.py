"""Kernel interface: numeric plane + cost plane + preprocessing cost.

Every SpMV kernel variant in this library exposes three planes:

* **numeric**: :meth:`Kernel.apply` computes the actual ``y = A @ x``
  (CSR-family kernels on the caller's CSR, bitwise equal to
  ``scipy.sparse``); the format tests verify every transformation
  (delta encoding, decomposition, row permutation) against scipy;
* **cost**: :meth:`Kernel.cost` produces the per-thread cycle/byte/
  latency terms :meth:`repro.model.AnalyticModel.run` turns into
  simulated execution times;
* **preprocessing**: :meth:`Kernel.preprocess` builds the ``data`` the
  other planes read, and :meth:`Kernel.preprocessing_seconds` charges
  the simulated setup cost (format conversion passes + JIT code
  generation), which the amortization analysis of paper Table V
  consumes.
"""

from __future__ import annotations

import abc

import numpy as np

from ..formats import CSRMatrix
from ..machine import KernelCost, MachineSpec
from ..sched import Partition, make_partition

__all__ = ["Kernel"]


class Kernel(abc.ABC):
    """Base class for SpMV kernel variants."""

    #: unique identifier, e.g. ``"csr"`` or ``"csr+vec+prefetch"``.
    name: str = "abstract"
    #: optimization tags applied relative to the scalar CSR baseline.
    optimizations: tuple[str, ...] = ()
    #: schedule policy name used by :meth:`partition`.
    schedule: str = "balanced-nnz"
    #: row granularity at which this kernel's execution format can be
    #: split without changing floating-point association. Row-local
    #: CSR-family kernels split anywhere (1); blocked/sorted formats
    #: (BCSR, SELL-C-sigma) regroup rows, so the parallel plane
    #: (:mod:`repro.parallel`) aligns chunk boundaries to this many
    #: rows to keep chunked execution bit-identical to serial.
    row_align: int = 1

    # -- preprocessing plane -------------------------------------------

    def preprocess(self, csr: CSRMatrix):
        """Build the ``data`` this kernel's planes read from ``csr``.

        The returned object is what :meth:`apply` / :meth:`cost` accept
        as ``data``. The default kernel executes CSR directly.
        """
        return csr

    def preprocessing_seconds(self, csr: CSRMatrix, machine: MachineSpec) -> float:
        """Simulated setup cost (conversion + JIT codegen) on ``machine``."""
        return 0.0

    # -- numeric plane ----------------------------------------------------

    @abc.abstractmethod
    def apply(self, data, x: np.ndarray, out: np.ndarray | None = None,
              workspace=None) -> np.ndarray:
        """Compute the kernel's result for input vector ``x``.

        ``out`` receives the result in place (validated against the
        kernel's output shape); ``workspace`` (a
        :class:`repro.memory.Workspace`) supplies reusable scratch
        buffers so repeat applies allocate nothing. Both are optional
        and default to the allocate-per-call behavior.
        """

    def apply_multi(self, data, X: np.ndarray,
                    out: np.ndarray | None = None,
                    workspace=None) -> np.ndarray:
        """Batched numeric plane: ``Y = A @ X`` for ``X`` of shape
        ``(ncols, k)``.

        Column ``j`` of the result equals ``apply(data, X[:, j])``.
        Kernels whose execution format has a native ``matmat`` override
        this to amortize index traffic and any decode/permutation work
        over all ``k`` right-hand sides; the fallback stacks ``apply``
        calls.
        """
        X = np.ascontiguousarray(X, dtype=np.float64)
        if X.ndim != 2:
            raise ValueError(f"X must be 2-D (ncols, k), got shape {X.shape}")
        cols = [self.apply(data, X[:, j], workspace=workspace)
                for j in range(X.shape[1])]
        if not cols:
            nrows = getattr(data, "nrows", 0)
            Y = np.zeros((nrows, 0), dtype=np.float64)
        else:
            Y = np.stack(cols, axis=1)
        if out is None:
            return Y
        from ..formats.base import check_out_buffer

        out = check_out_buffer(out, Y.shape, operand=X)
        out[:] = Y
        return out

    # -- cost plane -------------------------------------------------------

    @abc.abstractmethod
    def cost(self, data, machine: MachineSpec, partition: Partition) -> KernelCost:
        """Per-thread cost terms of one kernel execution."""

    # -- scheduling ---------------------------------------------------------

    def partition(self, data, nthreads: int) -> Partition:
        """Default row partition for this kernel at ``nthreads``."""
        return make_partition(self._schedulable(data), nthreads, self.schedule)

    def _schedulable(self, data):
        """The rowptr-bearing object the schedule should balance over."""
        return data

    # -- conveniences ------------------------------------------------------

    def run_numeric(self, csr: CSRMatrix, x: np.ndarray,
                    out: np.ndarray | None = None,
                    workspace=None) -> np.ndarray:
        """Preprocess + apply in one step (tests & examples)."""
        data = self.preprocess(csr)
        x = np.asarray(x)
        if x.ndim == 2:
            return self.apply_multi(data, x, out=out, workspace=workspace)
        return self.apply(data, x, out=out, workspace=workspace)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<{type(self).__name__} {self.name!r}>"
