"""Property-based tests on partitioning invariants."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sched import auto_chunked, balanced_nnz, dynamic_chunks, static_rows

from .test_formats_prop import sparse_matrices


@given(sparse_matrices(), st.integers(1, 32))
@settings(max_examples=80, deadline=None)
def test_every_policy_covers_each_row_once(csr, nthreads):
    for policy in (
        lambda: static_rows(csr.nrows, nthreads),
        lambda: balanced_nnz(csr, nthreads),
        lambda: auto_chunked(csr, nthreads),
        lambda: dynamic_chunks(csr, nthreads),
    ):
        p = policy()
        p.validate_covers(csr.nrows)
        # rows per thread: totals conserve
        counts = p.thread_counts(np.ones(csr.nrows))
        assert counts.sum() == csr.nrows


@given(sparse_matrices(), st.integers(1, 32))
@settings(max_examples=80, deadline=None)
def test_balanced_nnz_contiguity_and_balance(csr, nthreads):
    p = balanced_nnz(csr, nthreads)
    # contiguous: thread ids never decrease along rows
    assert np.all(np.diff(p.thread_of_row) >= 0)
    assert 1 <= p.nthreads <= max(nthreads, 1)
    per_thread = p.thread_counts(csr.row_nnz())
    if csr.nnz:
        # fair share over the *effective* thread count: degenerate
        # requests (more threads than nonempty rows) clamp
        fair = csr.nnz / p.nthreads
        max_row = csr.row_nnz().max()
        # no thread exceeds fair share by more than one row's worth
        assert per_thread.max() <= fair + max_row + 1e-9


@given(sparse_matrices(), st.integers(1, 32), st.integers(1, 64))
@settings(max_examples=60, deadline=None)
def test_auto_chunk_sizes(csr, nthreads, chunk):
    p = auto_chunked(csr, nthreads, chunk_rows=chunk)
    # every maximal run of equal thread ids has length <= chunk
    tor = p.thread_of_row
    if tor.size:
        change = np.flatnonzero(np.diff(tor) != 0)
        run_bounds = np.concatenate(([0], change + 1, [tor.size]))
        runs = np.diff(run_bounds)
        # with a single effective thread (nthreads == 1, or degenerate
        # clamping e.g. on zero-nnz matrices) the whole matrix is one run
        assert runs.max() <= max(chunk, 1) or p.nthreads == 1
