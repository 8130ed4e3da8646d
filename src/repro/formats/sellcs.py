"""SELL-C-sigma — the sliced, sorted ELLPACK format.

Kreutzer et al., "A unified sparse matrix data format for efficient
general sparse matrix-vector multiplication on modern processors with
wide SIMD units" (SIAM J. Sci. Comput. 2014) — cited by the paper as
one of the footprint-compressing formats motivating its related work.

Layout: rows are sorted by descending length within windows of
``sigma`` rows, then grouped into *chunks* of ``C`` consecutive rows;
each chunk is padded to its longest row and stored column-major, so a
SIMD unit of width ``C`` processes ``C`` rows in lockstep with unit-
stride loads of values and column indices. Sorting within sigma-windows
keeps rows of similar length together, bounding the padding overhead
while limiting how far the output permutation strays from the original
order.

Like BCSR, this is an extension payload for the plug-and-play pool
(kernel in :mod:`repro.kernels.sellcs`), not part of the paper's
low-preprocessing pool.
"""

from __future__ import annotations

import numpy as np

from .._validation import check_positive
from .base import SparseFormat, check_out_buffer, contiguous_operand
from .csr import CSRMatrix

__all__ = ["SellCSigmaMatrix"]


class SellCSigmaMatrix(SparseFormat):
    """SELL-C-sigma storage. Build with :meth:`from_csr`."""

    format_name = "sell-c-sigma"

    __slots__ = ("chunk_ptr", "chunk_len", "colind", "values",
                 "row_perm", "chunk", "sigma", "_shape", "_nnz", "_rm")

    def __init__(self, chunk_ptr, chunk_len, colind, values, row_perm,
                 chunk, sigma, shape, nnz, *, trusted=False):
        self.chunk_ptr = np.ascontiguousarray(chunk_ptr, dtype=np.int64)
        self.chunk_len = np.ascontiguousarray(chunk_len, dtype=np.int64)
        self.colind = np.ascontiguousarray(colind, dtype=np.int32)
        self.values = np.ascontiguousarray(values, dtype=np.float64)
        self.row_perm = np.ascontiguousarray(row_perm, dtype=np.int64)
        self.chunk = int(chunk)
        self.sigma = int(sigma)
        self._shape = (int(shape[0]), int(shape[1]))
        self._nnz = int(nnz)
        self._rm = None
        if not trusted:
            nchunks = self.chunk_len.size
            if self.chunk_ptr.size != nchunks + 1:
                raise ValueError("chunk_ptr must have nchunks + 1 entries")
            if self.colind.size != self.values.size:
                raise ValueError("colind and values must have equal length")

    @classmethod
    def from_csr(cls, csr: CSRMatrix, chunk: int = 8,
                 sigma: int | None = None) -> "SellCSigmaMatrix":
        """Convert ``csr``; ``sigma`` defaults to ``32 * chunk``."""
        check_positive("chunk", chunk)
        C = int(chunk)
        if sigma is None:
            sigma = 32 * C
        sigma = max(int(sigma), C)

        nrows = csr.nrows
        row_nnz = csr.row_nnz()
        # sort rows by descending length within sigma windows
        perm = np.arange(nrows, dtype=np.int64)
        for start in range(0, nrows, sigma):
            stop = min(start + sigma, nrows)
            window = perm[start:stop]
            order = np.argsort(-row_nnz[window], kind="stable")
            perm[start:stop] = window[order]

        sorted_nnz = row_nnz[perm]
        nchunks = -(-nrows // C)
        chunk_len = np.zeros(nchunks, dtype=np.int64)
        for ci in range(nchunks):
            lo, hi = ci * C, min((ci + 1) * C, nrows)
            chunk_len[ci] = sorted_nnz[lo:hi].max(initial=0)
        chunk_ptr = np.zeros(nchunks + 1, dtype=np.int64)
        np.cumsum(chunk_len * C, out=chunk_ptr[1:])

        total = int(chunk_ptr[-1])
        colind = np.zeros(total, dtype=np.int32)
        values = np.zeros(total, dtype=np.float64)
        # scatter each row into its column-major chunk slots
        for ci in range(nchunks):
            base = chunk_ptr[ci]
            width = chunk_len[ci]
            for lane in range(C):
                r = ci * C + lane
                if r >= nrows:
                    break
                row = perm[r]
                lo, hi = csr.rowptr[row], csr.rowptr[row + 1]
                k = hi - lo
                if k == 0:
                    continue
                slots = base + lane + C * np.arange(k)
                colind[slots] = csr.colind[lo:hi]
                values[slots] = csr.values[lo:hi]
        return cls(chunk_ptr, chunk_len, colind, values, perm, C, sigma,
                   csr.shape, csr.nnz, trusted=True)

    # -- SparseFormat interface ------------------------------------------

    @property
    def shape(self) -> tuple[int, int]:
        return self._shape

    @property
    def nnz(self) -> int:
        return self._nnz

    def _validate_structure(self, report) -> None:
        from .base import (
            check_equal_length,
            check_index_bounds,
            check_pointer_array,
        )

        C = self.chunk
        if C < 1:
            report.add("chunk-size", f"chunk must be >= 1, got {C}")
            return
        nchunks = self.chunk_len.size
        ptr_ok = check_pointer_array(
            report, "chunk_ptr", self.chunk_ptr,
            nseg=nchunks, end=self.values.size,
        )
        if (self.chunk_len < 0).any():
            p = int(np.flatnonzero(self.chunk_len < 0)[0])
            report.add(
                "chunk-len-negative",
                f"chunk_len[{p}] = {int(self.chunk_len[p])} is negative",
            )
        elif ptr_ok:
            # Slot/chunk consistency: each chunk stores exactly
            # chunk_len[ci] * C column-major slots.
            widths = np.diff(self.chunk_ptr)
            bad = np.flatnonzero(widths != self.chunk_len * C)
            if bad.size:
                p = int(bad[0])
                report.add(
                    "chunk-slot-mismatch",
                    f"chunk {p} spans {int(widths[p])} slots but "
                    f"chunk_len * C = {int(self.chunk_len[p]) * C}",
                )
        check_equal_length(report, "colind", self.colind,
                           "values", self.values)
        check_index_bounds(report, "colind", self.colind, self.ncols)
        if self.row_perm.size != self.nrows or not np.array_equal(
            np.sort(self.row_perm), np.arange(self.nrows, dtype=np.int64)
        ):
            report.add(
                "row-perm-invalid",
                f"row_perm is not a permutation of 0..{self.nrows - 1}",
            )
        if self._nnz > self.values.size:
            report.add(
                "nnz-accounting",
                f"logical nnz={self._nnz} exceeds the "
                f"{self.values.size} stored slots",
            )

    @property
    def nchunks(self) -> int:
        return int(self.chunk_len.size)

    @property
    def stored_elements(self) -> int:
        """Physically stored slots, including padding."""
        return int(self.values.size)

    @property
    def padding_ratio(self) -> float:
        """Stored / logical elements (1.0 = no padding)."""
        return self.stored_elements / max(self._nnz, 1)

    def _row_major(self) -> CSRMatrix:
        """Lazily regroup the column-major chunk storage into a
        row-major CSR view over the ``nchunks * C`` padded output rows.

        A stable sort of the slots by ``(chunk, lane)`` turns the
        lane-interleaved chunk layout into contiguous rows, so one
        compiled CSR kernel call replaces the per-chunk loop in both
        ``matvec`` and ``matmat``. Padded slots (column 0, value 0.0)
        sit after a row's real entries, so they add ``0.0 * x[0]`` to
        an already complete sum: for finite ``x`` every row equals the
        CSR result bitwise.
        """
        if self._rm is None:
            C = self.chunk
            total = self.values.size
            widths = np.diff(self.chunk_ptr)
            chunk_of_slot = np.repeat(
                np.arange(self.nchunks, dtype=np.int64), widths
            )
            lane = (
                np.arange(total, dtype=np.int64)
                - self.chunk_ptr[chunk_of_slot]
            ) % C
            order = np.argsort(chunk_of_slot * C + lane, kind="stable")
            rm_ptr = np.zeros(self.nchunks * C + 1, dtype=np.int64)
            np.cumsum(np.repeat(self.chunk_len, C), out=rm_ptr[1:])
            # Checked, not trusted: the compiled kernel indexes with it.
            self._rm = CSRMatrix(
                rm_ptr, self.colind[order], self.values[order],
                (self.nchunks * C, self.ncols),
            )
        return self._rm

    def matvec(self, x: np.ndarray, out: np.ndarray | None = None,
               workspace=None) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        if x.shape != (self.ncols,):
            raise ValueError(f"x must have shape ({self.ncols},), got {x.shape}")
        if out is None:
            y = np.empty(self.nrows, dtype=np.float64)
        else:
            y = check_out_buffer(out, (self.nrows,), operand=x)
        x = contiguous_operand(x, workspace, "sellcs.x")
        rm = self._row_major()
        if workspace is not None:
            y_perm = workspace.buffer("sellcs.y_perm", rm.nrows)
        else:
            y_perm = np.empty(rm.nrows, dtype=np.float64)
        rm.matvec(x, out=y_perm)
        # row_perm is a full permutation: every output row is written.
        y[self.row_perm] = y_perm[: self.nrows]
        return y

    def matmat(self, X: np.ndarray, out: np.ndarray | None = None,
               workspace=None) -> np.ndarray:
        """Batched apply on the row-major view: the slot permutation is
        computed once and reused across all applies, and each nonzero
        updates all ``k`` right-hand sides of its row."""
        X = self._check_matmat_input(X)
        k = X.shape[1]
        if out is None:
            Y = np.empty((self.nrows, k), dtype=np.float64)
        else:
            Y = check_out_buffer(out, (self.nrows, k), operand=X)
        rm = self._row_major()
        if workspace is not None:
            Y_perm = workspace.buffer("sellcs.Y_perm", (rm.nrows, k))
        else:
            Y_perm = np.empty((rm.nrows, k), dtype=np.float64)
        rm.matmat(X, out=Y_perm)
        Y[self.row_perm] = Y_perm[: self.nrows]
        return Y

    def index_nbytes(self) -> int:
        return int(
            self.chunk_ptr.nbytes + self.chunk_len.nbytes
            + self.colind.nbytes + self.row_perm.nbytes
        )

    def value_nbytes(self) -> int:
        return int(self.values.nbytes)
