"""Tests for rmatvec."""

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
