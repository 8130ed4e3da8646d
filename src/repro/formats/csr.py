"""Compressed Sparse Row (CSR) format — the canonical format of this library.

The CSR layout follows the paper's Section II: a ``rowptr`` array of
``N + 1`` offsets, a ``colind`` array with the column of each nonzero
(32-bit, as in vendor libraries) and a ``values`` array (float64, the
paper uses double precision throughout).

Beyond storage, :class:`CSRMatrix` carries the vectorized row-statistics
helpers (row lengths, bandwidths, nonzero gaps) that both the feature
extractor (paper Table II) and the machine cost model are built on.

The numeric kernels run scipy's compiled sparsetools loops
(:mod:`repro.formats.compiled`) and participate in the zero-allocation
execution plane (docs/performance.md): every kernel accepts ``out=``
and ``workspace=`` so repeat executions write into caller-owned
buffers, and the structure-derived plan (the single-dtype index pair)
is computed once and cached on the matrix — structural arrays are
immutable by contract, only ``values`` may be swapped/mutated by plan
rebuilds.
"""

from __future__ import annotations

import numpy as np

from .._validation import check_shape_2d, ensure_1d
from .base import SparseFormat, check_out_buffer, contiguous_operand
from .compiled import csc_matvec, csr_matmat, csr_matvec, index_pair

__all__ = ["CSRMatrix"]


class CSRMatrix(SparseFormat):
    """Sparse matrix in CSR format with canonical (sorted) column order.

    Parameters
    ----------
    rowptr : array_like of int, length ``nrows + 1``
        ``rowptr[i]:rowptr[i+1]`` delimits row ``i`` in the data arrays.
    colind : array_like of int
        Column index of every nonzero, strictly increasing within a row.
    values : array_like of float
        Value of every nonzero.
    shape : (int, int)
        Logical matrix dimensions.
    trusted : bool
        When True, skip the O(nnz) structural checks. Only for arrays
        produced by our own converters and plan rebuilds, where the
        invariants hold by construction; untrusted inputs go through
        the default path (or ``validate()``). The compiled kernels do
        not bounds-check, so a trusted matrix that breaks an invariant
        reads out of bounds.
    """

    format_name = "csr"

    __slots__ = ("rowptr", "colind", "values", "_shape",
                 "_row_ids", "_idx")

    def __init__(self, rowptr, colind, values, shape, *, trusted=False):
        self._shape = check_shape_2d("shape", shape)
        rowptr = ensure_1d("rowptr", rowptr, dtype=np.int64)
        colind = ensure_1d("colind", colind, dtype=np.int32)
        values = ensure_1d("values", values, dtype=np.float64)
        if not trusted:
            nrows = self._shape[0]
            if rowptr.size != nrows + 1:
                raise ValueError(
                    f"rowptr must have length nrows + 1 = {nrows + 1}, "
                    f"got {rowptr.size}"
                )
            if rowptr[0] != 0 or rowptr[-1] != colind.size:
                raise ValueError("rowptr must start at 0 and end at nnz")
            if np.any(np.diff(rowptr) < 0):
                raise ValueError("rowptr must be non-decreasing")
            if colind.size != values.size:
                raise ValueError("colind and values must have equal length")
            if colind.size:
                if colind.min() < 0 or colind.max() >= self._shape[1]:
                    raise ValueError("column index out of bounds")
        self.rowptr = rowptr
        self.colind = colind
        self.values = values
        # Structure-derived plan caches (lazy; values-independent).
        self._row_ids = None
        self._idx = None

    # -- SparseFormat interface ---------------------------------------

    @property
    def shape(self) -> tuple[int, int]:
        return self._shape

    @property
    def nnz(self) -> int:
        return int(self.values.size)

    def _validate_structure(self, report) -> None:
        from .base import (
            check_equal_length,
            check_index_bounds,
            check_pointer_array,
        )

        ptr_ok = check_pointer_array(
            report, "rowptr", self.rowptr,
            nseg=self.nrows, end=self.colind.size,
        )
        check_equal_length(report, "colind", self.colind,
                           "values", self.values)
        check_index_bounds(report, "colind", self.colind, self.ncols)
        if ptr_ok and self.colind.size:
            # Canonical CSR keeps columns strictly increasing per row;
            # conversions and the delta encoding rely on it.
            gaps = np.diff(self.colind.astype(np.int64))
            interior = np.ones(self.colind.size - 1, dtype=bool)
            starts = self.rowptr[1:-1]
            starts = starts[(starts > 0) & (starts <= interior.size)]
            interior[starts - 1] = False
            bad = np.flatnonzero(interior & (gaps <= 0))
            if bad.size:
                p = int(bad[0]) + 1
                report.add(
                    "colind-unsorted",
                    f"colind not strictly increasing within its row at "
                    f"position {p} (value {int(self.colind[p])})",
                )

    # -- cached iteration plans ---------------------------------------

    def _index_pair(self) -> tuple[np.ndarray, np.ndarray]:
        """``(rowptr, colind)`` in one index dtype for the compiled
        kernels (cached; see :func:`repro.formats.compiled.index_pair`).
        """
        if self._idx is None:
            self._idx = index_pair(self.rowptr, self.colind, self._shape)
        return self._idx

    # -- numeric kernels ----------------------------------------------

    def matvec(self, x: np.ndarray, out: np.ndarray | None = None,
               workspace=None) -> np.ndarray:
        """Compute ``y = A @ x`` with the compiled CSR kernel.

        With ``out=`` the result is written into the caller-owned
        buffer; ``workspace=`` only holds a contiguous copy of a
        strided ``x``. The result equals scipy's ``S @ x`` bitwise.
        """
        x = np.asarray(x, dtype=np.float64)
        if x.shape != (self.ncols,):
            raise ValueError(f"x must have shape ({self.ncols},), got {x.shape}")
        if out is None:
            y = np.empty(self.nrows, dtype=np.float64)
        else:
            y = check_out_buffer(out, (self.nrows,), operand=x)
        x = contiguous_operand(x, workspace, "csr.matvec.x")
        return csr_matvec(self._index_pair(), self.values, self._shape,
                          x, y)

    def matmat(self, X: np.ndarray, out: np.ndarray | None = None,
               workspace=None) -> np.ndarray:
        """Compute ``Y = A @ X`` for a dense block of right-hand sides.

        One pass over the nonzeros regardless of ``k``: each nonzero
        updates all ``k`` vectors of its row, so index traffic and the
        irregular x-access stream are amortized ``k``-fold (the SpMM
        optimization of Saule et al., arXiv:1302.1078). Column ``j``
        equals ``matvec(X[:, j])`` bitwise.
        """
        X = self._check_matmat_input(X)
        if out is None:
            out = np.empty((self.nrows, X.shape[1]), dtype=np.float64)
        else:
            out = check_out_buffer(out, (self.nrows, X.shape[1]),
                                   operand=X)
        return csr_matmat(self._index_pair(), self.values, self._shape,
                          X, out)

    def rmatvec(self, x: np.ndarray, out: np.ndarray | None = None,
                workspace=None) -> np.ndarray:
        """Compute ``y = A.T @ x`` without materializing the transpose.

        A's CSR arrays are ``A.T``'s CSC arrays, so the compiled CSC
        kernel scatters each row's contributions into ``y`` in stored
        order. Column ``j`` therefore accumulates its contributions in
        ascending row order, the same order as an ``np.add.at`` scatter
        over the nonzeros, and the two agree bitwise. Used by
        normal-equation solvers and PageRank-style rank propagation,
        where an explicit transpose would double the memory footprint.
        """
        x = np.asarray(x, dtype=np.float64)
        if x.shape != (self.nrows,):
            raise ValueError(f"x must have shape ({self.nrows},), got {x.shape}")
        if out is None:
            y = np.empty(self.ncols, dtype=np.float64)
        else:
            y = check_out_buffer(out, (self.ncols,), operand=x)
        x = contiguous_operand(x, workspace, "csr.rmatvec.x")
        return csc_matvec(self._index_pair(), self.values,
                          (self.ncols, self.nrows), x, y)

    def index_nbytes(self) -> int:
        return int(self.rowptr.nbytes + self.colind.nbytes)

    def value_nbytes(self) -> int:
        return int(self.values.nbytes)

    # -- row statistics (consumed by features + machine model) --------

    def row_nnz(self) -> np.ndarray:
        """Number of nonzeros in every row (``nnz_i`` in the paper)."""
        return np.diff(self.rowptr)

    def row_bandwidths(self) -> np.ndarray:
        """Column span ``bw_i`` of every row.

        Defined as in the paper: the column distance between the first
        and the last nonzero element of the row. Rows with fewer than
        two nonzeros have bandwidth 0.
        """
        bw = np.zeros(self.nrows, dtype=np.int64)
        nnz = self.row_nnz()
        nonempty = nnz > 0
        starts = self.rowptr[:-1][nonempty]
        ends = self.rowptr[1:][nonempty] - 1
        bw[nonempty] = self.colind[ends].astype(np.int64) - self.colind[starts]
        return bw

    def column_gaps(self) -> np.ndarray:
        """Gap to the previous nonzero in the same row, per nonzero.

        The first nonzero of every row gets gap 0 (no predecessor).
        Used by the ``clustering`` and ``misses`` features and by the
        cache model of the x-vector access stream.
        """
        if self.nnz == 0:
            return np.zeros(0, dtype=np.int64)
        gaps = np.empty(self.nnz, dtype=np.int64)
        gaps[0] = 0
        gaps[1:] = np.diff(self.colind.astype(np.int64))
        starts = self.rowptr[:-1]
        starts = starts[(starts < self.nnz)]
        gaps[starts] = 0
        return gaps

    def row_flag_counts(self, flags: np.ndarray) -> np.ndarray:
        """Number of set ``flags`` (one bool per nonzero) in every row.

        The counts are exact integers: the per-row sums run in int32
        (int64 past 2**31 nonzeros), so no float copy of the nnz-sized
        flags is made. Returned as float64; empty rows count 0.
        """
        out = np.zeros(self.nrows, dtype=np.float64)
        nonempty = np.flatnonzero(self.row_nnz())
        if nonempty.size:
            dtype = np.int32 if flags.size < 2**31 else np.int64
            out[nonempty] = np.add.reduceat(
                flags, self.rowptr[nonempty], dtype=dtype
            )
        return out

    def row_ids_per_nnz(self) -> np.ndarray:
        """Row index of every stored nonzero (inverse of rowptr, cached)."""
        if self._row_ids is None:
            self._row_ids = np.repeat(
                np.arange(self.nrows, dtype=np.int64), self.row_nnz()
            )
        return self._row_ids

    def row_slice(self, i: int) -> tuple[np.ndarray, np.ndarray]:
        """Return ``(colind, values)`` views of row ``i``."""
        lo, hi = int(self.rowptr[i]), int(self.rowptr[i + 1])
        return self.colind[lo:hi], self.values[lo:hi]

    def submatrix_rows(self, start: int, stop: int) -> "CSRMatrix":
        """Rows ``start:stop`` as a window (same ncols) that shares this
        matrix's ``colind`` and ``values``; only ``rowptr`` is rebased."""
        if not (0 <= start <= stop <= self.nrows):
            raise ValueError(f"invalid row range [{start}, {stop})")
        lo, hi = int(self.rowptr[start]), int(self.rowptr[stop])
        return CSRMatrix(
            self.rowptr[start : stop + 1] - lo,
            self.colind[lo:hi],
            self.values[lo:hi],
            (stop - start, self.ncols),
            trusted=True,
        )

    # -- constructors & conversions -----------------------------------

    @classmethod
    def from_coo(cls, coo) -> "CSRMatrix":
        """Convert a canonical :class:`~repro.formats.coo.COOMatrix`."""
        nrows = coo.shape[0]
        rowptr = np.zeros(nrows + 1, dtype=np.int64)
        np.add.at(rowptr, coo.rows + 1, 1)
        np.cumsum(rowptr, out=rowptr)
        return cls(rowptr, coo.cols.astype(np.int32), coo.values, coo.shape,
                   trusted=True)

    @classmethod
    def from_arrays(cls, rows, cols, values, shape) -> "CSRMatrix":
        """Build directly from unsorted triplets (via COO canonicalization)."""
        from .coo import COOMatrix

        return cls.from_coo(COOMatrix(rows, cols, values, shape))

    @classmethod
    def from_dense(cls, dense) -> "CSRMatrix":
        from .coo import COOMatrix

        return cls.from_coo(COOMatrix.from_dense(dense))

    @classmethod
    def from_scipy(cls, mat) -> "CSRMatrix":
        csr = mat.tocsr()
        csr.sort_indices()
        csr.sum_duplicates()
        return cls(csr.indptr, csr.indices, csr.data, csr.shape)

    def to_scipy(self):
        import scipy.sparse as sp

        return sp.csr_matrix(
            (self.values, self.colind, self.rowptr), shape=self._shape
        )

    def to_coo(self):
        from .coo import COOMatrix

        return COOMatrix(
            self.row_ids_per_nnz(),
            self.colind.astype(np.int64),
            self.values,
            self._shape,
        )

    def to_dense(self) -> np.ndarray:
        out = np.zeros(self._shape, dtype=np.float64)
        out[self.row_ids_per_nnz(), self.colind] = self.values
        return out

    def transpose(self) -> "CSRMatrix":
        """Return A^T in CSR form (i.e. this matrix in CSC, re-sorted)."""
        coo = self.to_coo()
        from .coo import COOMatrix

        flipped = COOMatrix(
            coo.cols, coo.rows, coo.values, (self.ncols, self.nrows)
        )
        return CSRMatrix.from_coo(flipped)
