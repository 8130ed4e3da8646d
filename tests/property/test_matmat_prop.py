"""Property-based tests for the batched ``matmat`` plane.

For every format a kernel executes (CSR, BCSR, SELL-C-sigma) and
random structure (including nnz = 0, single-row and empty-row cases),
the batched product must agree column-for-column with sequential
``matvec`` calls and with the scipy dense reference to 1e-12.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.formats import BCSRMatrix, COOMatrix, CSRMatrix, SellCSigmaMatrix

#: The formats a kernel executes, the only ones with a numeric plane.
BUILDERS = {
    "csr": lambda csr: csr,
    "bcsr": BCSRMatrix.from_csr,
    "sell-c-sigma": SellCSigmaMatrix.from_csr,
}


@st.composite
def sparse_matrices(draw, max_dim=30, max_nnz=150):
    nrows = draw(st.integers(1, max_dim))
    ncols = draw(st.integers(1, max_dim))
    nnz = draw(st.integers(0, max_nnz))
    rows = draw(
        st.lists(st.integers(0, nrows - 1), min_size=nnz, max_size=nnz)
    )
    cols = draw(
        st.lists(st.integers(0, ncols - 1), min_size=nnz, max_size=nnz)
    )
    values = draw(
        st.lists(
            st.floats(-10, 10, allow_nan=False, allow_infinity=False),
            min_size=nnz,
            max_size=nnz,
        )
    )
    return CSRMatrix.from_coo(COOMatrix(rows, cols, values, (nrows, ncols)))


@given(sparse_matrices(), st.integers(1, 6), st.integers(0, 2**31 - 1),
       st.sampled_from(sorted(BUILDERS)))
@settings(max_examples=120, deadline=None)
def test_matmat_consistent_across_planes(csr, k, seed, name):
    fmt = BUILDERS[name](csr)
    X = np.random.default_rng(seed).uniform(-1, 1, size=(csr.ncols, k))
    Y = fmt.matmat(X)
    assert Y.shape == (csr.nrows, k)
    # batched == stacked single-RHS on the same format
    stacked = np.column_stack([fmt.matvec(X[:, j]) for j in range(k)])
    np.testing.assert_allclose(Y, stacked, rtol=1e-12, atol=1e-12)
    # batched == dense reference
    np.testing.assert_allclose(Y, csr.to_dense() @ X, rtol=1e-12,
                               atol=1e-12)


@given(sparse_matrices(), st.integers(0, 2**31 - 1))
@settings(max_examples=60, deadline=None)
def test_matmul_operator_matches_matmat(csr, seed):
    X = np.random.default_rng(seed).uniform(-1, 1, size=(csr.ncols, 3))
    np.testing.assert_array_equal(csr @ X, csr.matmat(X))
