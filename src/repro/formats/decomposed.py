"""Decomposed CSR for matrices with highly uneven row lengths.

Implements the IMB-class "matrix decomposition" optimization of the
paper (Fig. 6 / Fig. 7 of the text): the matrix is split into

* a *short part* — all rows whose length is at most ``threshold``,
  stored as a regular CSR with the long rows left empty, and
* a *long part* — the few very long rows, stored contiguously.

The priced SpMV runs in two steps: the short part uses the ordinary
row-partitioned kernel (long rows are skipped for free because they are
empty), and every long row is computed by *all* threads cooperatively
followed by a reduction of partial sums, which removes the imbalance a
single monster row would otherwise cause. No kernel executes it.
"""

from __future__ import annotations

import numpy as np

from .base import SparseFormat
from .csr import CSRMatrix

__all__ = ["DecomposedCSR", "default_long_row_threshold"]


def default_long_row_threshold(csr: CSRMatrix, nthreads: int = 64) -> int:
    """Heuristic row-length cutoff above which a row is "long".

    A row is worth decomposing when it alone exceeds the average
    per-thread share of nonzeros by a wide margin, because a static row
    partitioning cannot split it. We use a quarter of the fair
    per-thread share, floored at 8x the mean row length (so near-uniform
    matrices decompose nothing).
    """
    if csr.nrows == 0 or csr.nnz == 0:
        return 1
    fair_share = csr.nnz / max(nthreads, 1)
    mean_len = csr.nnz / csr.nrows
    return int(max(fair_share / 4.0, 8.0 * mean_len, 8.0))


class DecomposedCSR(SparseFormat):
    """Two-part (short rows + long rows) CSR decomposition."""

    format_name = "decomposed-csr"

    __slots__ = (
        "short",
        "long_rows",
        "long_rowptr",
        "long_colind",
        "long_values",
        "threshold",
        "_shape",
        "_long",
    )

    def __init__(self, short, long_rows, long_rowptr, long_colind, long_values,
                 threshold, shape, *, trusted=False):
        self.short = short
        self.long_rows = np.ascontiguousarray(long_rows, dtype=np.int64)
        self.long_rowptr = np.ascontiguousarray(long_rowptr, dtype=np.int64)
        self.long_colind = np.ascontiguousarray(long_colind, dtype=np.int32)
        self.long_values = np.ascontiguousarray(long_values, dtype=np.float64)
        self.threshold = int(threshold)
        self._shape = (int(shape[0]), int(shape[1]))
        self._long = None
        if not trusted:
            if self.long_rowptr.size != self.long_rows.size + 1:
                raise ValueError(
                    "long_rowptr must have len(long_rows) + 1 entries"
                )
            if self.long_colind.size != self.long_values.size:
                raise ValueError("long_colind and long_values must match")

    @classmethod
    def from_csr(cls, csr: CSRMatrix, threshold: int | None = None,
                 nthreads: int = 64) -> "DecomposedCSR":
        """Split ``csr`` into short and long parts at ``threshold`` nnz/row."""
        if threshold is None:
            threshold = default_long_row_threshold(csr, nthreads)
        threshold = int(threshold)
        if threshold < 1:
            raise ValueError(f"threshold must be >= 1, got {threshold}")
        row_nnz = csr.row_nnz()
        long_rows = np.flatnonzero(row_nnz > threshold)
        keep = np.repeat(row_nnz <= threshold, row_nnz)

        short_counts = row_nnz.copy()
        short_counts[long_rows] = 0
        short_rowptr = np.zeros(csr.nrows + 1, dtype=np.int64)
        np.cumsum(short_counts, out=short_rowptr[1:])
        short = CSRMatrix(
            short_rowptr, csr.colind[keep], csr.values[keep], csr.shape,
            trusted=True,
        )

        long_counts = row_nnz[long_rows]
        long_rowptr = np.zeros(long_rows.size + 1, dtype=np.int64)
        np.cumsum(long_counts, out=long_rowptr[1:])
        return cls(
            short,
            long_rows,
            long_rowptr,
            csr.colind[~keep],
            csr.values[~keep],
            threshold,
            csr.shape,
            trusted=True,
        )

    def to_csr(self) -> CSRMatrix:
        """Reassemble the original CSR matrix (rows in canonical order)."""
        row_nnz = self.short.row_nnz().copy()
        row_nnz[self.long_rows] = np.diff(self.long_rowptr)
        rowptr = np.zeros(self.nrows + 1, dtype=np.int64)
        np.cumsum(row_nnz, out=rowptr[1:])
        colind = np.empty(self.nnz, dtype=np.int32)
        values = np.empty(self.nnz, dtype=np.float64)
        # Both parts store their rows in ascending row order, and each
        # output slot belongs to exactly one part, so a boolean mask per
        # nonzero scatters both parts in two contiguous-copy passes.
        is_long_row = np.zeros(self.nrows, dtype=bool)
        is_long_row[self.long_rows] = True
        out_is_long = np.repeat(is_long_row, row_nnz)
        colind[out_is_long] = self.long_colind
        values[out_is_long] = self.long_values
        colind[~out_is_long] = self.short.colind
        values[~out_is_long] = self.short.values
        return CSRMatrix(rowptr, colind, values, self._shape, trusted=True)

    # -- SparseFormat interface ----------------------------------------

    @property
    def shape(self) -> tuple[int, int]:
        return self._shape

    @property
    def nnz(self) -> int:
        return int(self.short.nnz + self.long_values.size)

    def _validate_structure(self, report) -> None:
        from .base import (
            check_equal_length,
            check_index_bounds,
            check_pointer_array,
        )

        short_report = self.short.validate(strict=False,
                                           check_values=False)
        report.extend(short_report, prefix="short.")
        rows_ok = check_index_bounds(report, "long_rows", self.long_rows,
                                     self.nrows)
        if self.long_rows.size > 1 and np.any(np.diff(self.long_rows) <= 0):
            report.add(
                "long-rows-nonmonotonic",
                "long_rows must be strictly increasing",
            )
            rows_ok = False
        check_pointer_array(
            report, "long_rowptr", self.long_rowptr,
            nseg=self.long_rows.size, end=self.long_values.size,
        )
        check_equal_length(report, "long_colind", self.long_colind,
                           "long_values", self.long_values)
        check_index_bounds(report, "long_colind", self.long_colind,
                           self.ncols)
        if rows_ok and short_report.ok and self.long_rows.size:
            overlap = np.flatnonzero(
                self.short.row_nnz()[self.long_rows] > 0
            )
            if overlap.size:
                r = int(self.long_rows[overlap[0]])
                report.add(
                    "long-row-overlap",
                    f"row {r} is stored in both the short and the long "
                    f"part",
                )

    def _value_arrays(self):
        return [
            ("short.values", self.short.values),
            ("long_values", self.long_values),
        ]

    @property
    def n_long_rows(self) -> int:
        return int(self.long_rows.size)

    @property
    def long_nnz(self) -> int:
        return int(self.long_values.size)

    def long_part(self) -> CSRMatrix | None:
        """The long rows as a compact CSR (row ``i`` is matrix row
        ``long_rows[i]``), or None without long rows. Cached; it shares
        this matrix's long-part arrays, and its constructor checks them
        before the cost plane indexes with them."""
        if self._long is None and self.long_rows.size:
            self._long = CSRMatrix(
                self.long_rowptr, self.long_colind, self.long_values,
                (self.long_rows.size, self.ncols),
            )
        return self._long

    def index_nbytes(self) -> int:
        return int(
            self.short.index_nbytes()
            + self.long_rows.nbytes
            + self.long_rowptr.nbytes
            + self.long_colind.nbytes
        )

    def value_nbytes(self) -> int:
        return int(self.short.value_nbytes() + self.long_values.nbytes)
