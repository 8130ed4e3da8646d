"""Work partitioning of SpMV rows across threads.

A :class:`Partition` maps every row to the thread that executes it.
The cost model prices a thread from exact per-thread totals of integer
per-row counts (:meth:`Partition.thread_counts`), its only per-thread
fold. Any assignment expressible as a row->thread map works (contiguous
blocks, round-robin chunks, ...).

``kind == "dynamic"`` is special: it represents a work-stealing runtime
whose assignment is made *at execution time*. The time model treats it
as near-perfectly balanced modulo per-chunk scheduling overhead (see
:meth:`repro.model.AnalyticModel.run`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

__all__ = ["Partition"]


@dataclass(frozen=True)
class Partition:
    """Assignment of matrix rows to ``nthreads`` executing threads.

    ``boundaries``, when given, are the ``nthreads + 1`` row edges of
    the contiguous policies: thread ``i`` owns rows
    ``boundaries[i]:boundaries[i + 1]``.
    """

    nthreads: int
    thread_of_row: np.ndarray          # int32, len == nrows
    kind: str = "static"
    chunk_rows: int = 0                # granularity, for overhead accounting
    boundaries: np.ndarray | None = field(default=None, compare=False)

    def __post_init__(self) -> None:
        if self.nthreads < 1:
            raise ValueError(f"nthreads must be >= 1, got {self.nthreads}")
        tor = np.ascontiguousarray(self.thread_of_row, dtype=np.int32)
        object.__setattr__(self, "thread_of_row", tor)
        if tor.size and (tor.min() < 0 or tor.max() >= self.nthreads):
            raise ValueError("thread_of_row entries out of range")

    @property
    def nrows(self) -> int:
        return int(self.thread_of_row.size)

    @property
    def is_dynamic(self) -> bool:
        return self.kind == "dynamic"

    def thread_counts(self, per_row: np.ndarray | None = None, *,
                      offsets: np.ndarray | None = None) -> np.ndarray:
        """Exact per-thread totals (int64) of an integer-valued per-row
        count.

        ``per_row`` is one bool, integer or integral float64 value per
        row. Alternatively ``offsets`` gives the counts' prefix sums
        (``nrows + 1`` entries, as ``rowptr`` does for the row lengths)
        and is read only at the run edges, with no per-row pass. With
        neither, the totals are the rows per thread. The per-row values
        are reduced with ``np.add.reduceat`` over the partition's
        contiguous runs, without a widened copy; a partition with
        several runs per thread then adds the run totals by owner.
        Integer sums below ``2**53`` are exact in any order, so the
        totals do not depend on how the rows are grouped.
        """
        edges, owner = self._runs
        if offsets is not None:
            offsets = np.asarray(offsets)
            if offsets.shape != (self.nrows + 1,):
                raise ValueError(
                    f"offsets must have shape ({self.nrows + 1},), "
                    f"got {offsets.shape}"
                )
            at_edges = offsets[edges]
            runs = at_edges[1:] - at_edges[:-1]
        elif per_row is None:
            runs = edges[1:] - edges[:-1]
        else:
            per_row = np.asarray(per_row)
            if per_row.shape != (self.nrows,):
                raise ValueError(
                    f"per_row must have shape ({self.nrows},), "
                    f"got {per_row.shape}"
                )
            if self.nrows == 0:
                return np.zeros(self.nthreads, dtype=np.int64)
            runs = np.add.reduceat(per_row, edges[:-1],
                                   dtype=_sum_dtype(per_row))
        runs = runs.astype(np.int64, copy=False)
        if owner is None:
            return runs
        return np.bincount(owner, weights=runs,
                           minlength=self.nthreads).astype(np.int64)

    @cached_property
    def _runs(self) -> tuple[np.ndarray, np.ndarray | None]:
        """Edges of the maximal single-owner row runs (int64, first 0,
        last ``nrows``) and each run's owner thread, ``None`` when run
        ``i`` is thread ``i``'s only run."""
        b = self.boundaries
        if (b is not None and b.size == self.nthreads + 1
                and b[0] == 0 and b[-1] == self.nrows
                and (self.nrows == 0 or np.all(np.diff(b) > 0))):
            return np.asarray(b, dtype=np.int64), None
        tor = self.thread_of_row
        if tor.size == 0:
            return np.zeros(1, dtype=np.int64), np.empty(0, dtype=np.int32)
        cuts = np.flatnonzero(np.diff(tor)) + 1
        edges = np.concatenate(([0], cuts, [tor.size])).astype(np.int64)
        owner = tor[edges[:-1]]
        if owner.size == self.nthreads and np.array_equal(
                owner, np.arange(self.nthreads)):
            owner = None
        return edges, owner

    def rows_of_thread(self, tid: int) -> np.ndarray:
        """Row indices executed by thread ``tid`` (ascending)."""
        if not 0 <= tid < self.nthreads:
            raise ValueError(f"tid out of range: {tid}")
        return np.flatnonzero(self.thread_of_row == tid)

    def n_chunks(self) -> int:
        """Number of contiguous assignment chunks (scheduling quanta)."""
        if self.nrows == 0:
            return 0
        return int(self._runs[0].size - 1)

    def contiguous_runs(self) -> list[tuple[int, int, int]]:
        """Maximal contiguous row ranges with a single owner thread.

        Returns ``(lo, hi, tid)`` triples covering ``[0, nrows)`` in
        order; each range ``[lo, hi)`` is executed by thread ``tid``.
        This is the execution unit of the real parallel plane
        (:mod:`repro.parallel`): contiguous ranges preserve the serial
        per-row reduction order, so chunked execution stays
        bit-identical to a single-thread sweep.
        """
        if self.nrows == 0:
            return []
        edges = self._runs[0].tolist()
        tor = self.thread_of_row
        return [
            (lo, hi, int(tor[lo])) for lo, hi in zip(edges[:-1], edges[1:])
        ]

    def validate_covers(self, nrows: int) -> None:
        """Assert the partition covers exactly ``nrows`` rows."""
        if self.nrows != nrows:
            raise ValueError(
                f"partition covers {self.nrows} rows, matrix has {nrows}"
            )


def _sum_dtype(per_row: np.ndarray):
    """Accumulator dtype that sums ``per_row`` exactly without widening
    it: floats in float64 (integral values are exact below ``2**53``),
    64-bit integers in their own dtype, narrower integers and bools in
    int32 unless the rows could carry past it."""
    if per_row.dtype.kind == "f":
        return np.float64
    if per_row.dtype.itemsize == 8:
        return per_row.dtype
    if per_row.dtype.kind == "b":
        peak = 1
    else:
        peak = max(int(per_row.max()), -int(per_row.min()))
    return np.int32 if peak * per_row.size < 2**31 else np.int64
