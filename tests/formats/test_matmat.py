"""Unit tests for the batched (multi-RHS) ``matmat`` plane."""

import numpy as np
import pytest

import repro.formats.bcsr as bcsrmod
from repro.formats import BCSRMatrix, CSRMatrix, SellCSigmaMatrix

RHS = 7

#: The formats a kernel executes, the only ones with a numeric plane.
BUILDERS = {
    "csr": lambda csr: csr,
    "bcsr": BCSRMatrix.from_csr,
    "sell-c-sigma": SellCSigmaMatrix.from_csr,
}
FORMATS = tuple(BUILDERS)


@pytest.fixture
def X300(rng):
    return rng.standard_normal((300, RHS))


@pytest.mark.parametrize("name", FORMATS)
def test_matmat_matches_scipy(small_random_csr, small_random_scipy, X300,
                              name):
    fmt = BUILDERS[name](small_random_csr)
    np.testing.assert_allclose(
        fmt.matmat(X300), small_random_scipy @ X300, rtol=1e-12, atol=1e-12
    )


@pytest.mark.parametrize("name", FORMATS)
def test_matmat_columns_match_matvec(small_random_csr, X300, name):
    fmt = BUILDERS[name](small_random_csr)
    Y = fmt.matmat(X300)
    for j in range(RHS):
        np.testing.assert_allclose(
            Y[:, j], fmt.matvec(X300[:, j]), rtol=1e-12, atol=1e-12
        )


@pytest.mark.parametrize("name", FORMATS)
def test_matmat_handles_empty_rows(empty_row_csr, name):
    fmt = BUILDERS[name](empty_row_csr)
    X = np.ones((6, 3))
    Y = fmt.matmat(X)
    assert Y.shape == (6, 3)
    np.testing.assert_array_equal(Y[[0, 2, 4]], 0.0)
    np.testing.assert_allclose(Y[5], sum(range(5, 11)))


@pytest.mark.parametrize("name", FORMATS)
def test_matmat_empty_matrix(name):
    csr = CSRMatrix([0, 0, 0], [], [], (2, 4))
    fmt = BUILDERS[name](csr)
    Y = fmt.matmat(np.ones((4, 3)))
    np.testing.assert_array_equal(Y, np.zeros((2, 3)))


@pytest.mark.parametrize("name", FORMATS)
def test_matmat_single_row(name):
    csr = CSRMatrix([0, 2], [1, 3], [2.0, -1.0], (1, 5))
    fmt = BUILDERS[name](csr)
    X = np.arange(10.0).reshape(5, 2)
    np.testing.assert_allclose(fmt.matmat(X), csr.to_dense() @ X)


@pytest.mark.parametrize("name", FORMATS)
def test_matmat_zero_rhs(small_random_csr, name):
    fmt = BUILDERS[name](small_random_csr)
    Y = fmt.matmat(np.zeros((300, 0)))
    assert Y.shape == (300, 0)


def test_matmat_tiled_path(small_random_csr, small_random_scipy, X300,
                           monkeypatch):
    """Forcing tiny tiles in BCSR's batched block path must not change
    any format's result (covers its tile-boundary and buffer-reuse
    paths)."""
    monkeypatch.setattr(bcsrmod, "_TILE_ELEMS", 8)
    for name in FORMATS:
        fmt = BUILDERS[name](small_random_csr)
        np.testing.assert_allclose(
            fmt.matmat(X300), small_random_scipy @ X300,
            rtol=1e-12, atol=1e-12,
        )


def test_matmat_uniform_rows_tiled(monkeypatch):
    """All rows the same width, through CSR and BCSR's tiled path."""
    rng = np.random.default_rng(0)
    nrows, width = 50, 4
    rows = np.repeat(np.arange(nrows), width)
    cols = np.tile([2, 5, 11, 23], nrows)
    csr = CSRMatrix.from_arrays(
        rows, cols, np.arange(1.0, nrows * width + 1), (nrows, 30)
    )
    assert np.all(np.diff(csr.rowptr) == width)
    X = rng.standard_normal((30, 3))
    expected = csr.to_dense() @ X
    bcsr = BCSRMatrix.from_csr(csr, block=2)
    for fmt in (csr, bcsr):
        np.testing.assert_allclose(fmt.matmat(X), expected, rtol=1e-12)
    monkeypatch.setattr(bcsrmod, "_TILE_ELEMS", 16)
    np.testing.assert_allclose(bcsr.matmat(X), expected, rtol=1e-12)


def test_matmul_operator_dispatches_2d(small_random_csr, X300, x300):
    np.testing.assert_allclose(
        small_random_csr @ X300, small_random_csr.matmat(X300), rtol=1e-15
    )
    np.testing.assert_allclose(
        small_random_csr @ x300, small_random_csr.matvec(x300), rtol=1e-15
    )


def test_matmat_rejects_bad_shapes(small_random_csr):
    with pytest.raises(ValueError, match="shape"):
        small_random_csr.matmat(np.zeros((7, 3)))
    with pytest.raises(ValueError, match="shape"):
        small_random_csr.matmat(np.zeros((300, 3, 2)))


def test_matmat_accepts_noncontiguous(small_random_csr, rng):
    Xf = np.asfortranarray(rng.standard_normal((300, 4)))
    np.testing.assert_allclose(
        small_random_csr.matmat(Xf),
        small_random_csr.matmat(np.ascontiguousarray(Xf)),
        rtol=1e-15,
    )
