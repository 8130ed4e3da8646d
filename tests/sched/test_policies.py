"""Unit tests for partitioning policies."""

import numpy as np
import pytest

from repro.sched import (
    SCHEDULE_POLICIES,
    auto_chunked,
    balanced_nnz,
    dynamic_chunks,
    make_partition,
    static_rows,
)


def test_static_rows_contiguous_equal_blocks():
    p = static_rows(100, 4)
    counts = np.bincount(p.thread_of_row, minlength=4)
    assert counts.tolist() == [25, 25, 25, 25]
    assert np.all(np.diff(p.thread_of_row) >= 0)  # contiguous


def test_static_rows_uneven_division():
    p = static_rows(10, 3)
    assert p.nrows == 10
    assert np.bincount(p.thread_of_row, minlength=3).sum() == 10


def test_balanced_nnz_balances_nonzeros(skewed_csr):
    T = 8
    p = balanced_nnz(skewed_csr, T)
    per_thread = p.thread_counts(offsets=skewed_csr.rowptr)
    fair = skewed_csr.nnz / T
    # every thread within 2x of fair share unless a single row exceeds it
    max_row = skewed_csr.row_nnz().max()
    assert per_thread.max() <= max(2 * fair, max_row + fair)


def test_balanced_nnz_beats_static_rows_on_skew(skewed_csr):
    nnz = skewed_csr.row_nnz()
    T = 8
    static = static_rows(skewed_csr.nrows, T).thread_counts(nnz)
    balanced = balanced_nnz(skewed_csr, T).thread_counts(nnz)
    assert balanced.max() <= static.max()


def test_balanced_nnz_covers_all_rows(banded_csr):
    p = balanced_nnz(banded_csr, 7)
    assert p.nrows == banded_csr.nrows
    p.validate_covers(banded_csr.nrows)


def test_auto_chunked_interleaves(banded_csr):
    p = auto_chunked(banded_csr, 4, chunk_rows=10)
    # row 0 and row 40 belong to the same thread (round robin of 4)
    assert p.thread_of_row[0] == p.thread_of_row[40]
    assert p.thread_of_row[0] != p.thread_of_row[10]
    assert p.kind == "auto"
    assert p.chunk_rows == 10


def test_dynamic_kind_flag(banded_csr):
    p = dynamic_chunks(banded_csr, 4)
    assert p.is_dynamic


def test_n_chunks(banded_csr):
    p = auto_chunked(banded_csr, 4, chunk_rows=100)
    assert p.n_chunks() == int(np.ceil(banded_csr.nrows / 100))


def test_rows_of_thread():
    from repro.sched import Partition

    p = Partition(2, np.array([0, 1, 0], dtype=np.int32))
    assert p.rows_of_thread(0).tolist() == [0, 2]
    with pytest.raises(ValueError):
        p.rows_of_thread(5)


def test_partition_validation():
    from repro.sched import Partition

    with pytest.raises(ValueError):
        Partition(0, np.zeros(3, dtype=np.int32))
    with pytest.raises(ValueError):
        Partition(2, np.array([0, 3], dtype=np.int32))


def test_make_partition_by_name(banded_csr):
    for name in SCHEDULE_POLICIES:
        p = make_partition(banded_csr, 4, name)
        assert p.nthreads == 4
    with pytest.raises(ValueError, match="unknown schedule"):
        make_partition(banded_csr, 4, "guided")


def test_more_threads_than_rows():
    from repro.matrices.generators import laplacian_1d

    tiny = laplacian_1d(5)
    p = balanced_nnz(tiny, 16)
    # Degenerate request clamps to the useful parallelism: no thread
    # may own zero rows, and ids stay contiguous from 0.
    assert p.nthreads <= 5
    counts = np.bincount(p.thread_of_row, minlength=p.nthreads)
    assert counts.min() >= 1
    p.validate_covers(5)
