"""Delta-compressed CSR (column-index delta encoding).

This implements the MB-class optimization of the paper (Table I):
column indices are stored as deltas to the previous nonzero in the same
row, using **either** 8-bit **or** 16-bit unsigned deltas for the whole
matrix — "never both, in order to limit the branching overhead"
(Section III-E). Delta indexing for SpMV goes back to Pooch & Nieder.

Positions where a delta cannot be represented (the first nonzero of a
row, or a gap wider than the delta width) are *reset points*: the
absolute 32-bit column index is stored out-of-line in ``reset_col`` and
the in-line delta is 0. Decoding is fully vectorized via a segmented
cumulative sum between reset points. Only the cost plane reads it.
"""

from __future__ import annotations

import numpy as np

from .._validation import check_in
from .base import SparseFormat
from .csr import CSRMatrix

__all__ = ["DeltaCSR", "choose_delta_width"]

_MAX_DELTA = {8: np.iinfo(np.uint8).max, 16: np.iinfo(np.uint16).max}
_DTYPE = {8: np.uint8, 16: np.uint16}


def choose_delta_width(csr: CSRMatrix) -> int:
    """Pick the delta width (8 or 16 bits) for ``csr``.

    Chooses whichever single width minimizes the encoded index
    footprint: ``nnz * width/8`` bytes of in-line deltas plus 12 bytes
    per reset point (row starts plus overflowing gaps). Matches the
    paper's "8- or 16-bit deltas wherever possible, but never both"
    policy with a footprint-optimal tie-break.
    """
    if csr.nnz == 0:
        return 8
    gaps = csr.column_gaps()
    row_starts = min(np.count_nonzero(csr.row_nnz() > 0), csr.nnz)

    def footprint(width: int) -> int:
        resets = row_starts + int(
            np.count_nonzero(gaps > _MAX_DELTA[width])
        )
        return csr.nnz * (width // 8) + 12 * resets

    return 8 if footprint(8) <= footprint(16) else 16


class DeltaCSR(SparseFormat):
    """CSR with delta-encoded column indices.

    Build with :meth:`from_csr`; the raw constructor takes the already
    encoded arrays and is primarily for internal/test use.
    """

    format_name = "delta-csr"

    __slots__ = (
        "rowptr",
        "deltas",
        "reset_pos",
        "reset_col",
        "values",
        "width",
        "_shape",
    )

    def __init__(self, rowptr, deltas, reset_pos, reset_col, values, shape,
                 width, *, trusted=False):
        self.width = check_in("width", int(width), (8, 16))
        self.rowptr = np.ascontiguousarray(rowptr, dtype=np.int64)
        self.deltas = np.ascontiguousarray(deltas, dtype=_DTYPE[self.width])
        self.reset_pos = np.ascontiguousarray(reset_pos, dtype=np.int64)
        self.reset_col = np.ascontiguousarray(reset_col, dtype=np.int32)
        self.values = np.ascontiguousarray(values, dtype=np.float64)
        self._shape = (int(shape[0]), int(shape[1]))
        if not trusted:
            if self.deltas.size != self.values.size:
                raise ValueError("deltas and values must have equal length")
            if self.reset_pos.size != self.reset_col.size:
                raise ValueError(
                    "reset_pos and reset_col must have equal length"
                )
            if self.values.size and (
                self.reset_pos.size == 0 or self.reset_pos[0] != 0
            ):
                raise ValueError("the first nonzero must be a reset point")
            if np.any(np.diff(self.reset_pos) <= 0):
                raise ValueError("reset_pos must be strictly increasing")

    # -- construction --------------------------------------------------

    @classmethod
    def from_csr(cls, csr: CSRMatrix, width: int | None = None) -> "DeltaCSR":
        """Encode a CSR matrix. ``width`` of None selects automatically."""
        if width is None:
            width = choose_delta_width(csr)
        check_in("width", width, (8, 16))
        nnz = csr.nnz
        if nnz == 0:
            return cls(
                csr.rowptr.copy(),
                np.zeros(0, dtype=_DTYPE[width]),
                np.zeros(0, dtype=np.int64),
                np.zeros(0, dtype=np.int32),
                csr.values.copy(),
                csr.shape,
                width,
            )
        gaps = csr.column_gaps()
        row_start = np.zeros(nnz, dtype=bool)
        starts = csr.rowptr[:-1]
        row_start[starts[starts < nnz]] = True
        overflow = gaps > _MAX_DELTA[width]
        reset = row_start | overflow
        reset_pos = np.flatnonzero(reset)
        reset_col = csr.colind[reset_pos]
        deltas = gaps.copy()
        deltas[reset_pos] = 0
        return cls(
            csr.rowptr.copy(),
            deltas.astype(_DTYPE[width]),
            reset_pos,
            reset_col,
            csr.values.copy(),
            csr.shape,
            width,
        )

    def decode_colind(self) -> np.ndarray:
        """Reconstruct the absolute int32 column indices (vectorized)."""
        nnz = self.values.size
        if nnz == 0:
            return np.zeros(0, dtype=np.int32)
        csum = np.cumsum(self.deltas.astype(np.int64))
        seg_len = np.diff(np.append(self.reset_pos, nnz))
        base = np.repeat(
            self.reset_col.astype(np.int64) - csum[self.reset_pos], seg_len
        )
        return (base + csum).astype(np.int32)

    def to_csr(self) -> CSRMatrix:
        return CSRMatrix(
            self.rowptr.copy(),
            self.decode_colind(),
            self.values.copy(),
            self._shape,
        )

    # -- SparseFormat interface ----------------------------------------

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

        nnz = self.values.size
        ptr_ok = check_pointer_array(
            report, "rowptr", self.rowptr, nseg=self.nrows, end=nnz
        )
        check_equal_length(report, "deltas", self.deltas,
                           "values", self.values)
        resets_ok = True
        if self.reset_pos.size != self.reset_col.size:
            report.add(
                "length-mismatch",
                f"reset_pos ({self.reset_pos.size}) and reset_col "
                f"({self.reset_col.size}) must have equal length",
            )
            resets_ok = False
        if nnz and (self.reset_pos.size == 0 or self.reset_pos[0] != 0):
            report.add(
                "reset-pos-start",
                "the first nonzero must be a reset point",
            )
            resets_ok = False
        if np.any(np.diff(self.reset_pos) <= 0):
            report.add(
                "reset-pos-nonmonotonic",
                "reset_pos must be strictly increasing",
            )
            resets_ok = False
        if not check_index_bounds(report, "reset_pos", self.reset_pos,
                                  max(nnz, 1)):
            resets_ok = False
        check_index_bounds(report, "reset_col", self.reset_col, self.ncols)
        if (resets_ok and self.reset_pos.size
                and self.deltas.size == nnz
                and (self.deltas[self.reset_pos] != 0).any()):
            p = int(np.flatnonzero(self.deltas[self.reset_pos] != 0)[0])
            report.add(
                "reset-delta-nonzero",
                f"in-line delta at reset point {int(self.reset_pos[p])} "
                f"must be 0",
            )
        if ptr_ok and resets_ok and self.deltas.size == nnz:
            # Decoded absolute columns must land inside the matrix.
            decoded = self.decode_colind().astype(np.int64)
            check_index_bounds(report, "decoded-colind", decoded,
                               self.ncols)

    def index_nbytes(self) -> int:
        reset_bytes = self.reset_pos.nbytes + self.reset_col.nbytes
        return int(self.rowptr.nbytes + self.deltas.nbytes + reset_bytes)

    def value_nbytes(self) -> int:
        return int(self.values.nbytes)

    # -- accounting helpers ---------------------------------------------

    @property
    def n_resets(self) -> int:
        return int(self.reset_pos.size)

    def compression_ratio(self) -> float:
        """Index bytes of plain CSR divided by index bytes of this format."""
        csr_index = self.rowptr.nbytes + 4 * self.values.size
        return float(csr_index) / max(self.index_nbytes(), 1)
