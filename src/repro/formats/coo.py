"""Coordinate (COO) sparse format.

COO is the interchange format of this library: matrix generators and the
Matrix Market reader produce COO, which is then converted to
:class:`repro.formats.csr.CSRMatrix` (the canonical execution format).
"""

from __future__ import annotations

import numpy as np

from .._validation import check_shape_2d, ensure_1d
from .base import SparseFormat

__all__ = ["COOMatrix"]


class COOMatrix(SparseFormat):
    """Sparse matrix in coordinate format.

    Parameters
    ----------
    rows, cols : array_like of int
        Row/column index of each stored element.
    values : array_like of float
        Value of each stored element.
    shape : (int, int)
        Logical matrix dimensions.
    sum_duplicates : bool
        When True (default), duplicate ``(row, col)`` entries are summed
        during canonicalization, mirroring ``scipy.sparse`` semantics.
    trusted : bool
        When True, the triplets are taken as already canonical (sorted
        by ``(row, col)``, duplicates merged, indices in bounds) and the
        O(nnz log nnz) canonicalization pass is skipped. Only for arrays
        produced by our own converters.
    """

    format_name = "coo"

    __slots__ = ("rows", "cols", "values", "_shape")

    def __init__(self, rows, cols, values, shape, *,
                 sum_duplicates: bool = True, trusted: bool = False):
        self._shape = check_shape_2d("shape", shape)
        rows = ensure_1d("rows", rows, dtype=np.int64)
        cols = ensure_1d("cols", cols, dtype=np.int64)
        values = ensure_1d("values", values, dtype=np.float64)
        if not trusted:
            if not (rows.size == cols.size == values.size):
                raise ValueError(
                    "rows, cols and values must have equal length, got "
                    f"{rows.size}, {cols.size}, {values.size}"
                )
            if rows.size:
                if rows.min(initial=0) < 0 or rows.max(initial=0) >= self._shape[0]:
                    raise ValueError("row index out of bounds")
                if cols.min(initial=0) < 0 or cols.max(initial=0) >= self._shape[1]:
                    raise ValueError("column index out of bounds")
            # Canonicalize: sort by (row, col), optionally merging
            # duplicates.
            order = np.lexsort((cols, rows))
            rows, cols, values = rows[order], cols[order], values[order]
            if sum_duplicates and rows.size:
                key_change = np.empty(rows.size, dtype=bool)
                key_change[0] = True
                key_change[1:] = (np.diff(rows) != 0) | (np.diff(cols) != 0)
                group = np.cumsum(key_change) - 1
                ngroups = int(group[-1]) + 1
                merged = np.zeros(ngroups, dtype=np.float64)
                np.add.at(merged, group, values)
                rows = rows[key_change]
                cols = cols[key_change]
                values = merged
        self.rows = rows
        self.cols = cols
        self.values = values

    # -- SparseFormat interface ---------------------------------------

    @property
    def shape(self) -> tuple[int, int]:
        return self._shape

    @property
    def nnz(self) -> int:
        return int(self.values.size)

    def _validate_structure(self, report) -> None:
        from .base import check_equal_length, check_index_bounds

        check_equal_length(report, "rows", self.rows, "cols", self.cols)
        check_equal_length(report, "rows", self.rows,
                           "values", self.values)
        rows_ok = check_index_bounds(report, "rows", self.rows, self.nrows)
        cols_ok = check_index_bounds(report, "cols", self.cols, self.ncols)
        if (rows_ok and cols_ok and self.rows.size > 1
                and self.rows.size == self.cols.size):
            # Canonical COO is sorted by (row, col) with duplicates
            # merged; CSRMatrix.from_coo reads its row runs as CSR rows.
            key = self.rows * np.int64(self.ncols) + self.cols
            bad = np.flatnonzero(np.diff(key) <= 0)
            if bad.size:
                p = int(bad[0]) + 1
                report.add(
                    "entries-unsorted",
                    f"entries not in strict (row, col) order at position "
                    f"{p} (row {int(self.rows[p])}, col {int(self.cols[p])})",
                )

    def index_nbytes(self) -> int:
        return int(self.rows.nbytes + self.cols.nbytes)

    def value_nbytes(self) -> int:
        return int(self.values.nbytes)

    # -- constructors & conversions -----------------------------------

    @classmethod
    def from_dense(cls, dense) -> "COOMatrix":
        """Build from a dense 2-D array, keeping exact nonzeros."""
        dense = np.asarray(dense, dtype=np.float64)
        if dense.ndim != 2:
            raise ValueError("dense must be 2-D")
        rows, cols = np.nonzero(dense)
        return cls(rows, cols, dense[rows, cols], dense.shape)

    @classmethod
    def from_scipy(cls, mat) -> "COOMatrix":
        """Build from any scipy.sparse matrix."""
        coo = mat.tocoo()
        return cls(coo.row, coo.col, coo.data, coo.shape)

    def to_scipy(self):
        """Return a ``scipy.sparse.coo_matrix`` copy."""
        import scipy.sparse as sp

        return sp.coo_matrix(
            (self.values, (self.rows, self.cols)), shape=self._shape
        )

    def to_dense(self) -> np.ndarray:
        """Materialize as a dense float64 array (small matrices only)."""
        out = np.zeros(self._shape, dtype=np.float64)
        np.add.at(out, (self.rows, self.cols), self.values)
        return out
