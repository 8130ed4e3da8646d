"""Unit tests for the CSR format (the canonical execution format)."""

import numpy as np
import pytest

from repro.formats import CSRMatrix


def test_matvec_matches_scipy(small_random_csr, small_random_scipy, x300):
    np.testing.assert_allclose(
        small_random_csr.matvec(x300), small_random_scipy @ x300, rtol=1e-12
    )


def test_matvec_handles_empty_rows(empty_row_csr):
    x = np.ones(6)
    y = empty_row_csr.matvec(x)
    assert y[0] == 0.0 and y[2] == 0.0 and y[4] == 0.0
    assert y[5] == pytest.approx(sum(range(5, 11)))


def test_matvec_rejects_bad_shape(small_random_csr):
    with pytest.raises(ValueError, match="shape"):
        small_random_csr.matvec(np.zeros(5))


def test_validation_rowptr_length():
    with pytest.raises(ValueError, match="rowptr"):
        CSRMatrix([0, 1], [0], [1.0], (2, 2))


def test_validation_rowptr_monotonic():
    with pytest.raises(ValueError, match="non-decreasing"):
        CSRMatrix([0, 2, 1, 2], [0, 1], [1.0, 2.0], (3, 2))


def test_validation_rowptr_ends_at_nnz():
    with pytest.raises(ValueError, match="end at nnz"):
        CSRMatrix([0, 1, 3], [0, 1], [1.0, 2.0], (2, 2))


def test_validation_column_bounds():
    with pytest.raises(ValueError, match="column index"):
        CSRMatrix([0, 1], [7], [1.0], (1, 3))


def test_row_nnz_and_bandwidths(empty_row_csr):
    np.testing.assert_array_equal(
        empty_row_csr.row_nnz(), [0, 1, 0, 3, 0, 6]
    )
    bw = empty_row_csr.row_bandwidths()
    assert bw[1] == 0          # single element -> bandwidth 0
    assert bw[3] == 5 - 0      # columns 0..5
    assert bw[5] == 5 - 0
    assert bw[0] == 0          # empty row


def test_column_gaps_reset_at_row_starts():
    #   row0: cols 1, 3     row1: cols 0, 8
    csr = CSRMatrix([0, 2, 4], [1, 3, 0, 8], np.ones(4), (2, 9))
    np.testing.assert_array_equal(csr.column_gaps(), [0, 2, 0, 8])


def test_row_ids_per_nnz(empty_row_csr):
    ids = empty_row_csr.row_ids_per_nnz()
    np.testing.assert_array_equal(ids, [1, 3, 3, 3, 5, 5, 5, 5, 5, 5])


def test_row_slice(empty_row_csr):
    cols, vals = empty_row_csr.row_slice(3)
    np.testing.assert_array_equal(cols, [0, 2, 5])
    np.testing.assert_array_equal(vals, [2.0, 3.0, 4.0])


def test_submatrix_rows(small_random_csr, x300):
    sub = small_random_csr.submatrix_rows(50, 150)
    assert sub.shape == (100, 300)
    assert np.shares_memory(sub.colind, small_random_csr.colind)
    assert np.shares_memory(sub.values, small_random_csr.values)
    full = small_random_csr.matvec(x300)
    np.testing.assert_array_equal(sub.matvec(x300), full[50:150])


def test_submatrix_rows_bad_range(small_random_csr):
    with pytest.raises(ValueError):
        small_random_csr.submatrix_rows(200, 100)


def test_from_coo_roundtrip(small_random_csr):
    back = CSRMatrix.from_coo(small_random_csr.to_coo())
    np.testing.assert_array_equal(back.rowptr, small_random_csr.rowptr)
    np.testing.assert_array_equal(back.colind, small_random_csr.colind)
    np.testing.assert_array_equal(back.values, small_random_csr.values)


def test_from_arrays_merges_and_sorts():
    csr = CSRMatrix.from_arrays(
        [1, 0, 1], [2, 1, 2], [1.0, 5.0, 2.0], (2, 3)
    )
    assert csr.nnz == 2
    assert csr.to_dense()[1, 2] == pytest.approx(3.0)


def test_transpose(small_random_csr):
    t = small_random_csr.transpose()
    np.testing.assert_allclose(
        t.to_dense(), small_random_csr.to_dense().T, rtol=1e-12
    )


def test_scipy_roundtrip(small_random_csr):
    back = CSRMatrix.from_scipy(small_random_csr.to_scipy())
    np.testing.assert_array_equal(back.colind, small_random_csr.colind)


def test_nbytes_accounting(empty_row_csr):
    assert empty_row_csr.index_nbytes() == 7 * 8 + 10 * 4
    assert empty_row_csr.value_nbytes() == 10 * 8


def test_matmul_operator(small_random_csr, x300):
    np.testing.assert_allclose(
        small_random_csr @ x300, small_random_csr.matvec(x300)
    )


def test_matvec_accuracy_on_adversarial_cancellation():
    # Large cancelling values in one row: the result must stay within
    # a few ulps of the large terms (summation order is unspecified,
    # so exact recovery of the small entry is not required).
    vals = np.array([1e16, -1e16, 1.0])
    csr = CSRMatrix([0, 3], [0, 1, 2], vals, (1, 3))
    y = csr.matvec(np.ones(3))
    assert abs(y[0] - 1.0) <= 4.0  # ulp(1e16) == 2
