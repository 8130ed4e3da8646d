"""Unit tests for the COO format."""

import numpy as np
import pytest

from repro.formats import COOMatrix, CSRMatrix


def test_canonicalization_sorts_by_row_then_col():
    coo = COOMatrix([2, 0, 0], [1, 5, 2], [1.0, 2.0, 3.0], (3, 6))
    assert coo.rows.tolist() == [0, 0, 2]
    assert coo.cols.tolist() == [2, 5, 1]
    assert coo.values.tolist() == [3.0, 2.0, 1.0]


def test_duplicates_are_summed():
    coo = COOMatrix([1, 1, 1], [4, 4, 2], [1.0, 2.5, 7.0], (3, 5))
    assert coo.nnz == 2
    dense = coo.to_dense()
    assert dense[1, 4] == pytest.approx(3.5)
    assert dense[1, 2] == pytest.approx(7.0)


def test_duplicates_kept_when_disabled():
    coo = COOMatrix([1, 1], [4, 4], [1.0, 2.5], (3, 5), sum_duplicates=False)
    assert coo.nnz == 2
    # the CSR it converts to still accumulates both entries
    x = np.zeros(5)
    x[4] = 2.0
    assert CSRMatrix.from_coo(coo).matvec(x)[1] == pytest.approx(7.0)


def test_out_of_bounds_indices_rejected():
    with pytest.raises(ValueError, match="row index"):
        COOMatrix([5], [0], [1.0], (3, 3))
    with pytest.raises(ValueError, match="column index"):
        COOMatrix([0], [9], [1.0], (3, 3))


def test_length_mismatch_rejected():
    with pytest.raises(ValueError, match="equal length"):
        COOMatrix([0, 1], [0], [1.0], (3, 3))


def test_bad_shape_rejected():
    with pytest.raises(ValueError):
        COOMatrix([], [], [], (0, 3))
    with pytest.raises(ValueError):
        COOMatrix([], [], [], (3,))


def test_from_dense_roundtrip():
    dense = np.array([[0.0, 1.5], [2.0, 0.0], [0.0, -3.0]])
    coo = COOMatrix.from_dense(dense)
    assert coo.nnz == 3
    np.testing.assert_array_equal(coo.to_dense(), dense)


def test_scipy_roundtrip(small_random_scipy):
    coo = COOMatrix.from_scipy(small_random_scipy)
    back = coo.to_scipy()
    assert (back != small_random_scipy).nnz == 0


def test_nbytes_accounting():
    coo = COOMatrix([0, 1], [1, 2], [1.0, 2.0], (3, 3))
    assert coo.index_nbytes() == 2 * 8 * 2   # two int64 arrays
    assert coo.value_nbytes() == 2 * 8
    assert coo.total_nbytes() == coo.index_nbytes() + coo.value_nbytes()


def test_empty_matrix():
    coo = COOMatrix([], [], [], (4, 4))
    assert coo.nnz == 0
    csr = CSRMatrix.from_coo(coo)
    assert csr.shape == (4, 4)
    np.testing.assert_array_equal(csr.rowptr, np.zeros(5))
