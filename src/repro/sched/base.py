"""Work partitioning of SpMV rows across threads.

A :class:`Partition` maps every row to the thread that executes it.
The cost model aggregates per-row cost arrays to per-thread totals via
:meth:`Partition.thread_sums`, so any assignment expressible as a
row->thread map works (contiguous blocks, round-robin chunks, ...).

``kind == "dynamic"`` is special: it represents a work-stealing runtime
whose assignment is made *at execution time*. The time model treats it
as near-perfectly balanced modulo per-chunk scheduling overhead (see
:meth:`repro.model.AnalyticModel.run`).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = ["Partition"]


@dataclass(frozen=True)
class Partition:
    """Assignment of matrix rows to ``nthreads`` executing threads."""

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

    def thread_sums(self, per_row: np.ndarray) -> np.ndarray:
        """Aggregate a per-row quantity to per-thread totals."""
        per_row = np.asarray(per_row, dtype=np.float64)
        if per_row.shape != (self.nrows,):
            raise ValueError(
                f"per_row must have shape ({self.nrows},), got {per_row.shape}"
            )
        return np.bincount(
            self.thread_of_row, weights=per_row, minlength=self.nthreads
        )

    def rows_of_thread(self, tid: int) -> np.ndarray:
        """Row indices executed by thread ``tid`` (ascending)."""
        if not 0 <= tid < self.nthreads:
            raise ValueError(f"tid out of range: {tid}")
        return np.flatnonzero(self.thread_of_row == tid)

    def n_chunks(self) -> int:
        """Number of contiguous assignment chunks (scheduling quanta)."""
        if self.nrows == 0:
            return 0
        return int(1 + np.count_nonzero(np.diff(self.thread_of_row) != 0))

    def contiguous_runs(self) -> list[tuple[int, int, int]]:
        """Maximal contiguous row ranges with a single owner thread.

        Returns ``(lo, hi, tid)`` triples covering ``[0, nrows)`` in
        order; each range ``[lo, hi)`` is executed by thread ``tid``.
        This is the execution unit of the real parallel plane
        (:mod:`repro.parallel`): contiguous ranges preserve the serial
        per-row reduction order, so chunked execution stays
        bit-identical to a single-thread sweep.
        """
        tor = self.thread_of_row
        if tor.size == 0:
            return []
        cuts = np.flatnonzero(np.diff(tor)) + 1
        starts = np.concatenate(([0], cuts))
        stops = np.concatenate((cuts, [tor.size]))
        return [
            (int(lo), int(hi), int(tor[lo]))
            for lo, hi in zip(starts, stops)
        ]

    def validate_covers(self, nrows: int) -> None:
        """Assert the partition covers exactly ``nrows`` rows."""
        if self.nrows != nrows:
            raise ValueError(
                f"partition covers {self.nrows} rows, matrix has {nrows}"
            )
