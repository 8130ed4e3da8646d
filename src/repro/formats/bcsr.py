"""Block CSR (BCSR) — register-blocked sparse format.

The classic OSKI/SPARSITY optimization the paper's related-work section
discusses: nonzeros are stored in small dense ``r x c`` blocks, one
column index per *block*. Index traffic drops by ~``r*c``x, and the
inner loop becomes a dense register-tiled kernel — at the price of
explicitly stored zeros (*fill-in*) wherever a block is only partially
populated.

This format is not part of the paper's pool (it needs nontrivial
autotuning of the block size, against the paper's lightweightness
goal); it is included as the demonstration payload for the pool's
plug-and-play extension point (see ``repro.kernels.bcsr``) and the A6
ablation comparing it against delta compression for the MB class.
"""

from __future__ import annotations

import numpy as np

from .._validation import check_positive
from .base import SparseFormat, check_out_buffer, contiguous_operand
from .csr import CSRMatrix

__all__ = ["BCSRMatrix"]

#: Element budget for the ``(blocks, r, k)`` contribution intermediate
#: of the batched kernel: 2^15 float64 = 256 KiB, sized so the tile
#: stays L2-resident.
_TILE_ELEMS = 32768


class _SegmentPlan:
    """Block-row reduction plan over ``block_rowptr`` (structure only,
    cached with the rest of the apply plan)."""

    __slots__ = ("lengths", "has_empty", "nonempty", "starts", "maxlen")

    def __init__(self, segptr: np.ndarray):
        lengths = np.diff(segptr)
        self.lengths = lengths
        self.maxlen = int(lengths.max(initial=0))
        self.has_empty = bool(lengths.min(initial=1) == 0)
        if self.has_empty:
            self.nonempty = np.flatnonzero(lengths > 0)
            self.starts = segptr[self.nonempty]
        else:
            self.nonempty = None
            self.starts = segptr[:-1]


class BCSRMatrix(SparseFormat):
    """Sparse matrix in block-CSR format with square ``block`` tiles.

    Build with :meth:`from_csr`. Blocks are aligned to the grid
    ``(row // block, col // block)``; partially filled blocks store
    explicit zeros (``fill_ratio`` reports the inflation).
    """

    format_name = "bcsr"

    __slots__ = ("block_rowptr", "block_colind", "block_values", "block",
                 "_shape", "_nnz", "_plan", "_pattern")

    def __init__(self, block_rowptr, block_colind, block_values, block,
                 shape, nnz, *, trusted=False):
        self.block_rowptr = np.ascontiguousarray(block_rowptr, dtype=np.int64)
        self.block_colind = np.ascontiguousarray(block_colind, dtype=np.int32)
        self.block_values = np.ascontiguousarray(block_values,
                                                 dtype=np.float64)
        self.block = int(block)
        self._shape = (int(shape[0]), int(shape[1]))
        self._nnz = int(nnz)
        self._plan = None
        self._pattern = None
        if not trusted:
            nblocks = self.block_colind.size
            if self.block_values.shape != (nblocks, self.block, self.block):
                raise ValueError(
                    "block_values must have shape (nblocks, block, block)"
                )
            if self.block_rowptr[-1] != nblocks:
                raise ValueError("block_rowptr must end at nblocks")

    # -- construction ----------------------------------------------------

    @classmethod
    def from_csr(cls, csr: CSRMatrix, block: int = 2) -> "BCSRMatrix":
        """Tile ``csr`` into ``block x block`` dense blocks."""
        check_positive("block", block)
        r = int(block)
        nrows, ncols = csr.shape
        nbrows = -(-nrows // r)
        nbcols = -(-ncols // r)

        if csr.nnz == 0:
            return cls(
                np.zeros(nbrows + 1, dtype=np.int64),
                np.zeros(0, dtype=np.int32),
                np.zeros((0, r, r)),
                r, csr.shape, 0,
            )

        rows = csr.row_ids_per_nnz()
        cols = csr.colind.astype(np.int64)
        brow = rows // r
        bcol = cols // r
        key = brow * nbcols + bcol
        uniq, inverse = np.unique(key, return_inverse=True)
        nblocks = uniq.size

        values = np.zeros((nblocks, r, r), dtype=np.float64)
        np.add.at(values, (inverse, rows % r, cols % r), csr.values)

        u_brow = (uniq // nbcols).astype(np.int64)
        u_bcol = (uniq % nbcols).astype(np.int32)
        block_rowptr = np.zeros(nbrows + 1, dtype=np.int64)
        np.add.at(block_rowptr, u_brow + 1, 1)
        np.cumsum(block_rowptr, out=block_rowptr)
        # uniq is sorted by key = brow*nbcols + bcol, i.e. already in
        # block-row-major order; no further permutation needed.
        return cls(block_rowptr, u_bcol, values, r, csr.shape, csr.nnz,
                   trusted=True)

    def to_csr(self) -> CSRMatrix:
        """Back to CSR, dropping the explicit fill-in zeros."""
        r = self.block
        nblocks = self.block_colind.size
        brow = np.repeat(
            np.arange(self.block_rowptr.size - 1, dtype=np.int64),
            np.diff(self.block_rowptr),
        )
        rows = (
            brow[:, None, None] * r
            + np.arange(r)[None, :, None]
        ) * np.ones((1, 1, r), dtype=np.int64)
        cols = (
            self.block_colind.astype(np.int64)[:, None, None] * r
            + np.arange(r)[None, None, :]
        ) * np.ones((1, r, 1), dtype=np.int64)
        mask = self.block_values != 0.0
        in_range = (rows < self.nrows) & (cols < self.ncols)
        keep = mask & in_range
        return CSRMatrix.from_arrays(
            rows[keep], cols[keep], self.block_values[keep], self._shape
        )

    # -- SparseFormat interface --------------------------------------------

    @property
    def shape(self) -> tuple[int, int]:
        return self._shape

    @property
    def nnz(self) -> int:
        """Logical nonzeros (excluding fill-in)."""
        return self._nnz

    def _validate_structure(self, report) -> None:
        from .base import check_index_bounds, check_pointer_array

        r = self.block
        if r < 1:
            report.add("block-size", f"block must be >= 1, got {r}")
            return
        nbrows = -(-self.nrows // r)
        nbcols = -(-self.ncols // r)
        nblocks = self.block_colind.size
        check_pointer_array(
            report, "block_rowptr", self.block_rowptr,
            nseg=nbrows, end=nblocks,
        )
        check_index_bounds(
            report, "block_colind", self.block_colind, nbcols
        )
        if self.block_values.shape != (nblocks, r, r):
            report.add(
                "block-values-shape",
                f"block_values must have shape ({nblocks}, {r}, {r}), "
                f"got {self.block_values.shape}",
            )
        stored = int(np.count_nonzero(self.block_values))
        if stored > self._nnz:
            # Fill-in slots are explicit zeros; more *nonzero* entries
            # than the logical nnz means values leaked into padding.
            report.add(
                "nnz-accounting",
                f"{stored} nonzero stored values exceed logical "
                f"nnz={self._nnz}",
            )

    def _value_arrays(self):
        return [("block_values", self.block_values)]

    @property
    def nblocks(self) -> int:
        return int(self.block_colind.size)

    @property
    def stored_elements(self) -> int:
        """Physically stored values, including fill-in zeros."""
        return int(self.nblocks * self.block * self.block)

    @property
    def fill_ratio(self) -> float:
        """Stored / logical elements (1.0 = perfect blocks)."""
        return self.stored_elements / max(self._nnz, 1)

    def block_pattern(self) -> CSRMatrix:
        """The block-coordinate pattern: one row per block row, one
        unit entry per stored block at its block column. Cached; it
        shares ``block_rowptr`` and ``block_colind``. The cost plane
        partitions and prices block rows on it, so the x-access
        statistics, memoized per matrix object, are computed once."""
        if self._pattern is None:
            self._pattern = CSRMatrix(
                self.block_rowptr, self.block_colind, np.ones(self.nblocks),
                (self.block_rowptr.size - 1,
                 max(-(-self.ncols // self.block), 1)),
                trusted=True,
            )
        return self._pattern

    def _block_plan(self):
        """Cached structure-derived apply plan:
        ``(xidx, seg, pad_cols, nbrows)`` where ``xidx[b]`` are the
        ``block`` padded-x indices gathered by block ``b`` and ``seg``
        is the block-row :class:`_SegmentPlan`."""
        if self._plan is None:
            r = self.block
            xidx = (
                self.block_colind.astype(np.int64)[:, None] * r
                + np.arange(r, dtype=np.int64)[None, :]
            )
            self._plan = (
                xidx,
                _SegmentPlan(self.block_rowptr),
                -(-self.ncols // r) * r,
                int(self.block_rowptr.size - 1),
            )
        return self._plan

    def matvec(self, x: np.ndarray, out: np.ndarray | None = None,
               workspace=None) -> np.ndarray:
        """``y = A @ x``: each dense block multiplies its ``block``-wide
        slab of a padded x, and per-block-row sums reduce with
        ``np.add.reduceat`` (blocks are stored block-row-major)."""
        x = np.asarray(x, dtype=np.float64)
        if x.shape != (self.ncols,):
            raise ValueError(f"x must have shape ({self.ncols},), got {x.shape}")
        r = self.block
        n = self.nrows
        x = contiguous_operand(x, workspace, "bcsr.x")
        xidx, seg, pad_cols, nbrows = self._block_plan()

        def scratch(name, shape):
            if workspace is not None:
                return workspace.buffer("bcsr." + name, shape)
            return np.empty(shape, dtype=np.float64)

        if out is None:
            y = np.empty(n, dtype=np.float64)
        else:
            y = check_out_buffer(out, (n,), operand=x)
        yp = y if nbrows * r == n else scratch("yp", nbrows * r)
        if not self.nblocks:
            yp[:] = 0.0
        else:
            if pad_cols == self.ncols:
                xp = x
            else:
                xp = scratch("xp", pad_cols)
                xp[: self.ncols] = x
                xp[self.ncols:] = 0.0
            xblocks = scratch("xblocks", (self.nblocks, r))
            np.take(xp, xidx, out=xblocks, mode="clip")
            contrib = scratch("contrib", (self.nblocks, r))
            np.einsum("bij,bj->bi", self.block_values, xblocks,
                      out=contrib)
            ypv = yp.reshape(nbrows, r)
            if not seg.has_empty:
                np.add.reduceat(contrib, seg.starts, axis=0, out=ypv)
            else:
                ypv[:] = 0.0
                if seg.nonempty.size:
                    ypv[seg.nonempty] = np.add.reduceat(
                        contrib, seg.starts, axis=0
                    )
        if yp is not y:
            y[:] = yp[:n]
        return y

    def matmat(self, X: np.ndarray, out: np.ndarray | None = None,
               workspace=None) -> np.ndarray:
        """Batched ``Y = A @ X``: each dense block multiplies a
        ``(block, k)`` slab of ``X`` (a small dense GEMM), and the
        per-block-row reduction uses ``np.add.reduceat`` because blocks
        are stored block-row-major. Work is tiled over block-row-aligned
        ranges so the ``(blocks, r, k)`` contribution intermediate stays
        cache-resident.
        """
        X = self._check_matmat_input(X)
        r = self.block
        k = X.shape[1]
        n = self.nrows
        xidx, seg, pad_cols, nbrows = self._block_plan()

        def scratch(name, shape):
            if workspace is not None:
                return workspace.buffer("bcsr." + name, shape)
            return np.empty(shape, dtype=np.float64)

        if out is None:
            Y = np.empty((n, k), dtype=np.float64)
        else:
            Y = check_out_buffer(out, (n, k), operand=X)
        Yp = Y if nbrows * r == n else scratch("Yp", (nbrows * r, k))
        if not (self.nblocks and k):
            Yp[:] = 0.0
            if Yp is not Y:
                Y[:] = Yp[:n]
            return Y
        if pad_cols == self.ncols:
            Xp = X
        else:
            Xp = scratch("Xp", (pad_cols, k))
            Xp[: self.ncols] = X
            Xp[self.ncols:] = 0.0
        Yview = Yp.reshape(nbrows, r, k)
        blocks_per_row = seg.lengths
        has_empty = seg.has_empty
        tile = max(_TILE_ELEMS // max(r * k, 1), 1)
        max_blocks = int(min(self.nblocks, max(tile, seg.maxlen)))
        xb = scratch("xblocks3", (max_blocks, r, k))
        cb = scratch("contrib3", (max_blocks, r, k))
        s0 = 0
        while s0 < nbrows:
            s1 = int(np.searchsorted(
                self.block_rowptr, self.block_rowptr[s0] + tile,
                side="right",
            )) - 1
            s1 = min(max(s1, s0 + 1), nbrows)
            lo = int(self.block_rowptr[s0])
            hi = int(self.block_rowptr[s1])
            if hi > lo:
                xblocks = xb[: hi - lo]
                np.take(Xp, xidx[lo:hi], axis=0, out=xblocks,
                        mode="clip")
                contrib = cb[: hi - lo]
                np.einsum(
                    "bij,bjk->bik", self.block_values[lo:hi], xblocks,
                    out=contrib,
                )
                if not has_empty:
                    np.add.reduceat(
                        contrib, self.block_rowptr[s0:s1] - lo, axis=0,
                        out=Yview[s0:s1],
                    )
                else:
                    nonempty = np.flatnonzero(blocks_per_row[s0:s1] > 0)
                    if nonempty.size:
                        Yview[s0 + nonempty] = np.add.reduceat(
                            contrib,
                            self.block_rowptr[s0:s1][nonempty] - lo,
                            axis=0,
                        )
                    empty = np.flatnonzero(blocks_per_row[s0:s1] == 0)
                    Yview[s0 + empty] = 0.0
            else:
                Yview[s0:s1] = 0.0
            s0 = s1
        if Yp is not Y:
            Y[:] = Yp[:n]
        return Y

    def index_nbytes(self) -> int:
        return int(self.block_rowptr.nbytes + self.block_colind.nbytes)

    def value_nbytes(self) -> int:
        return int(self.block_values.nbytes)
