"""Tests for rmatvec and compensated SpMV."""

import math

import numpy as np
import pytest

from repro.formats import CSRMatrix
from repro.matrices.generators import power_law


def test_rmatvec_matches_transpose(small_random_csr, rng):
    x = rng.standard_normal(small_random_csr.nrows)
    expected = small_random_csr.transpose().matvec(x)
    np.testing.assert_allclose(
        small_random_csr.rmatvec(x), expected, rtol=1e-12, atol=1e-12
    )


def test_rmatvec_matches_scatter_bitwise():
    """Each column accumulates its contributions in stored (ascending
    row) order, exactly like an ``np.add.at`` scatter over the
    nonzeros, and equals scipy's ``S.T @ x``."""
    A = power_law(20000, avg_deg=12, seed=3)
    x = np.random.default_rng(5).standard_normal(A.nrows)
    ref = np.zeros(A.ncols)
    np.add.at(ref, A.colind, A.values * x[A.row_ids_per_nnz()])
    got = A.rmatvec(x)
    np.testing.assert_array_equal(got, ref)
    np.testing.assert_array_equal(got, A.to_scipy().T @ x)


def test_rmatvec_rectangular():
    A = CSRMatrix.from_arrays([0, 0, 1], [0, 2, 1], [1.0, 2.0, 3.0],
                              (2, 4))
    y = A.rmatvec(np.array([10.0, 100.0]))
    np.testing.assert_allclose(y, [10.0, 300.0, 20.0, 0.0])


def test_rmatvec_shape_validation(small_random_csr):
    with pytest.raises(ValueError):
        small_random_csr.rmatvec(np.zeros(5))


def test_rmatvec_adjoint_identity(small_random_csr, rng):
    """<A x, y> == <x, A^T y> — the defining adjoint property."""
    x = rng.standard_normal(small_random_csr.ncols)
    y = rng.standard_normal(small_random_csr.nrows)
    lhs = float(small_random_csr.matvec(x) @ y)
    rhs = float(x @ small_random_csr.rmatvec(y))
    assert lhs == pytest.approx(rhs, rel=1e-10)


def test_compensated_matches_plain_on_benign(small_random_csr, x300):
    np.testing.assert_allclose(
        small_random_csr.matvec_compensated(x300),
        small_random_csr.matvec(x300),
        rtol=1e-12,
        atol=1e-12,
    )


def test_compensated_recovers_cancellation():
    """The case plain fp summation loses: the compensated kernel must
    recover the exact fsum result."""
    vals = np.array([1e16, 1.0, -1e16, 1.0])
    csr = CSRMatrix([0, 4], [0, 1, 2, 3], vals, (1, 4))
    x = np.ones(4)
    exact = math.fsum(vals)
    assert csr.matvec_compensated(x)[0] == pytest.approx(exact)


def test_compensated_random_rows_match_fsum(rng):
    rows, cols, vals = [], [], []
    for r in range(12):
        k = int(rng.integers(1, 30))
        rows += [r] * k
        cols += list(rng.integers(0, 50, size=k))
        vals += list(rng.standard_normal(k) * 10.0 ** rng.integers(0, 12))
    csr = CSRMatrix.from_arrays(rows, cols, vals, (12, 50))
    x = rng.standard_normal(50)
    got = csr.matvec_compensated(x)
    for r in range(12):
        c, v = csr.row_slice(r)
        exact = math.fsum(v * x[c])
        assert got[r] == pytest.approx(exact, rel=1e-13, abs=1e-13)


def test_compensated_empty_rows(empty_row_csr):
    x = np.ones(6)
    np.testing.assert_allclose(
        empty_row_csr.matvec_compensated(x), empty_row_csr.matvec(x)
    )


def test_compensated_shape_validation(small_random_csr):
    with pytest.raises(ValueError):
        small_random_csr.matvec_compensated(np.zeros(7))


def test_compensated_one_long_row_among_empties():
    """Regression: one long row amid empty rows must still accumulate
    every element — the lockstep loop's early exit (taken when no row
    remains active) must not trigger while the long row has elements
    left."""
    n = 40
    rowptr = np.zeros(n + 1, dtype=np.int64)
    rowptr[21:] = 30  # row 20 holds all 30 nonzeros, the rest are empty
    vals = np.concatenate([[1e15], np.ones(28), [-1e15]])
    csr = CSRMatrix(rowptr, np.arange(30, dtype=np.int32), vals, (n, 30))
    y = csr.matvec_compensated(np.ones(30))
    assert y[20] == pytest.approx(math.fsum(vals))
    assert np.count_nonzero(y) == 1


def test_compensated_all_rows_empty():
    csr = CSRMatrix(np.zeros(5, dtype=np.int64), [], [], (4, 3))
    np.testing.assert_array_equal(
        csr.matvec_compensated(np.ones(3)), np.zeros(4)
    )
