"""Row-partitioning policies.

The paper's baseline and optimized kernels use "a static one-dimensional
row partitioning scheme, where each partition has approximately equal
number of nonzero elements" (:func:`balanced_nnz`). The IMB class adds
the OpenMP ``auto`` schedule (:func:`auto_chunked`, modeled as
round-robin chunks, which is what practical compilers fall back to) and
a dynamic work-stealing policy for ablations.

Degenerate shapes are normalized rather than passed through: every
policy clamps its *effective* thread count to the available work
(``min(nthreads, nonempty rows)``, floor 1), so asking for 16 threads
on a 5-row matrix yields a 5-thread partition with contiguous, leading
thread ids instead of scattering rows over arbitrary ids or collapsing
everything onto thread 0. A matrix with zero nonzeros always maps all
rows to one thread with boundaries ``[0, nrows]``.
"""

from __future__ import annotations

import numpy as np

from .._validation import check_positive
from ..formats import CSRMatrix
from .base import Partition

__all__ = [
    "static_rows",
    "balanced_nnz",
    "auto_chunked",
    "dynamic_chunks",
    "make_partition",
    "rank_policies",
    "SCHEDULE_POLICIES",
]


def _nonempty_rows(rowptr: np.ndarray) -> int:
    """Number of rows with at least one stored nonzero."""
    return int(np.count_nonzero(np.diff(rowptr)))


def _effective_threads(nthreads: int, rowptr: np.ndarray) -> int:
    """Clamp the requested thread count to the rows that carry work.

    More threads than nonzero-carrying rows cannot reduce the critical
    path (a row is never split), they only create idle workers and —
    before this clamp — scattered or collapsed assignments that skewed
    the simulated imbalance. Floor 1 so empty matrices still partition.
    """
    return max(1, min(int(nthreads), _nonempty_rows(rowptr)))


def static_rows(nrows: int, nthreads: int) -> Partition:
    """Equal *row counts* per thread, contiguous blocks.

    The naive OpenMP ``schedule(static)`` on the row loop: ignores row
    lengths entirely, so skewed matrices imbalance badly. The effective
    thread count is clamped to ``min(nthreads, nrows)`` (this policy
    never sees nnz counts, so it clamps on rows, not nonempty rows).
    """
    check_positive("nthreads", nthreads)
    nthreads = max(1, min(int(nthreads), int(nrows)))
    bounds = np.linspace(0, nrows, nthreads + 1).astype(np.int64)
    thread_of_row = np.repeat(
        np.arange(nthreads, dtype=np.int32), np.diff(bounds)
    )
    return Partition(nthreads, thread_of_row, kind="static-rows",
                     boundaries=bounds)


def balanced_nnz(csr: CSRMatrix, nthreads: int) -> Partition:
    """Equal *nonzero counts* per thread, contiguous blocks (paper default).

    Boundaries are placed by binary search on the cumulative nonzero
    counts; a row is never split, so a single huge row still lands on a
    single thread — exactly the residual imbalance the decomposition
    optimization targets. The effective thread count is clamped to the
    nonempty rows (degenerate oversubscription), and duplicate
    boundaries caused by monster rows are repaired so every surviving
    thread owns at least one row — the thread count itself is
    preserved, keeping the modeled per-thread aggregates comparable
    across matrices while the real executor never sees a thread with
    an empty row range.
    """
    return _balanced_offsets(csr.rowptr, nthreads)


def _balanced_offsets(rowptr: np.ndarray, nthreads: int) -> Partition:
    """:func:`balanced_nnz` over a row pointer alone: row ``i`` carries
    ``rowptr[i + 1] - rowptr[i]`` units of work (nonzeros, or the
    stored slots of a SELL-C-sigma chunk)."""
    check_positive("nthreads", nthreads)
    nrows = rowptr.size - 1
    nnz = int(rowptr[-1])
    if nrows == 0:
        return Partition(1, np.empty(0, dtype=np.int32), kind="balanced-nnz",
                         boundaries=np.array([0, 0], dtype=np.int64))
    if nnz == 0:
        # searchsorted on a flat rowptr would put every boundary at 0;
        # defined behavior instead: all rows on thread 0.
        return Partition(1, np.zeros(nrows, dtype=np.int32),
                         kind="balanced-nnz",
                         boundaries=np.array([0, nrows], dtype=np.int64))
    neff = _effective_threads(nthreads, rowptr)
    targets = np.linspace(0, nnz, neff + 1)
    bounds = np.searchsorted(rowptr, targets, side="left").astype(np.int64)
    bounds[0], bounds[-1] = 0, nrows
    bounds = np.maximum.accumulate(bounds)
    # Repair duplicate boundaries into strictly increasing ones:
    # shifting by the index turns "strictly increasing" into
    # "non-decreasing", which maximum.accumulate enforces; the clip
    # keeps the tail inside the matrix. Feasible because
    # neff <= nonempty rows <= nrows.
    shift = np.arange(neff + 1, dtype=np.int64)
    bounds = np.minimum(
        np.maximum.accumulate(bounds - shift), nrows - neff
    ) + shift
    thread_of_row = np.repeat(
        np.arange(neff, dtype=np.int32), np.diff(bounds)
    )
    return Partition(neff, thread_of_row, kind="balanced-nnz",
                     boundaries=bounds)


def _chunked(csr: CSRMatrix, nthreads: int, chunk_rows: int | None,
             *, kind: str, divisor: int, floor: int) -> Partition:
    """Shared round-robin chunk assignment for auto/dynamic schedules."""
    check_positive("nthreads", nthreads)
    nrows = csr.nrows
    neff = _effective_threads(nthreads, csr.rowptr)
    if chunk_rows is None:
        # Automatic granularity. The clamp to nrows // neff guarantees
        # at least neff chunks, so every effective thread receives work
        # (before it, small matrices collapsed onto thread 0 because
        # the floor exceeded the whole matrix).
        chunk_rows = int(max(nrows // (neff * divisor), floor))
        if nrows >= neff > 0:
            chunk_rows = min(chunk_rows, nrows // neff)
    chunk_rows = max(int(chunk_rows), 1)
    chunk_ids = np.arange(nrows, dtype=np.int64) // chunk_rows
    nchunks = int(chunk_ids[-1]) + 1 if nrows else 0
    # An explicit oversized chunk_rows can still yield fewer chunks
    # than threads; shrink the thread count so ids stay leading.
    neff = max(1, min(neff, nchunks)) if nrows else 1
    thread_of_row = (chunk_ids % neff).astype(np.int32)
    return Partition(neff, thread_of_row, kind=kind, chunk_rows=chunk_rows)


def auto_chunked(csr: CSRMatrix, nthreads: int,
                 chunk_rows: int | None = None) -> Partition:
    """OpenMP ``auto`` schedule analogue: round-robin chunks of rows.

    The paper delegates the mapping to the compiler; Intel's runtime in
    practice picks a chunked scheme. Interleaving chunks across threads
    averages out *computational unevenness* (regions with different
    sparsity), the second IMB subcategory.
    """
    return _chunked(csr, nthreads, chunk_rows, kind="auto",
                    divisor=16, floor=8)


def dynamic_chunks(csr: CSRMatrix, nthreads: int,
                   chunk_rows: int | None = None) -> Partition:
    """Work-stealing dynamic schedule (ablation baseline).

    The row->thread map records the static round-robin *seed*
    assignment, but ``kind == "dynamic"`` tells the time model (and the
    real parallel plane in :mod:`repro.parallel`) to rebalance chunks
    across threads at execution time, charging a per-chunk dispatch
    overhead.
    """
    return _chunked(csr, nthreads, chunk_rows, kind="dynamic",
                    divisor=32, floor=4)


SCHEDULE_POLICIES = {
    "static-rows": lambda csr, t: static_rows(csr.nrows, t),
    "balanced-nnz": balanced_nnz,
    "auto": auto_chunked,
    "dynamic": dynamic_chunks,
}


def make_partition(csr: CSRMatrix, nthreads: int, policy: str = "balanced-nnz",
                   **kwargs) -> Partition:
    """Build a partition by policy name."""
    try:
        factory = SCHEDULE_POLICIES[policy]
    except KeyError:
        raise ValueError(
            f"unknown schedule policy {policy!r}; "
            f"available: {sorted(SCHEDULE_POLICIES)}"
        ) from None
    return factory(csr, nthreads, **kwargs) if kwargs else factory(csr, nthreads)


def rank_policies(csr: CSRMatrix, model, nthreads: int, kernel=None,
                  *, policies=None, data=None):
    """Rank schedule policies by the cost model's predicted makespan.

    Builds one partition per policy and asks ``model`` (any
    :class:`~repro.model.base.CostModel`) to predict the same kernel on
    each; returns ``[(name, Prediction), ...]`` sorted fastest first.
    This replaces the ad-hoc "run the engine for each schedule and
    compare" loops: a calibrated model ranks with host-measured scales,
    the analytic model with the paper's cost planes — same code path.

    ``kernel`` defaults to the reference CSR kernel, ``data`` to its
    preprocessed form (pass both to amortize preprocessing across
    calls); ``policies`` restricts the candidate set.
    """
    from ..kernels import baseline_kernel  # sched must not import kernels at top level

    check_positive("nthreads", nthreads)
    if kernel is None:
        kernel = baseline_kernel()
    if data is None:
        data = kernel.preprocess(csr)
    names = tuple(policies) if policies is not None else tuple(SCHEDULE_POLICIES)
    unknown = [n for n in names if n not in SCHEDULE_POLICIES]
    if unknown:
        raise ValueError(
            f"unknown schedule policies {unknown!r}; "
            f"available: {sorted(SCHEDULE_POLICIES)}"
        )
    ranked = [
        (name,
         model.predict(kernel, data, make_partition(csr, nthreads, name),
                       nthreads=nthreads))
        for name in names
    ]
    ranked.sort(key=lambda item: item[1].seconds)
    return ranked
