"""Property-based tests on the sparse-format invariants."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.formats import (
    COOMatrix,
    CSRMatrix,
    DecomposedCSR,
    DeltaCSR,
    SellCSigmaMatrix,
)
from repro.matrices.generators import banded, power_law


@st.composite
def sparse_matrices(draw, max_dim=40, max_nnz=200):
    """Random sparse matrices as canonical CSR."""
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
            st.floats(-100, 100, allow_nan=False, allow_infinity=False),
            min_size=nnz,
            max_size=nnz,
        )
    )
    return CSRMatrix.from_coo(COOMatrix(rows, cols, values, (nrows, ncols)))


@st.composite
def vectors_for(draw, csr):
    vals = draw(
        st.lists(
            st.floats(-10, 10, allow_nan=False, allow_infinity=False),
            min_size=csr.ncols,
            max_size=csr.ncols,
        )
    )
    return np.array(vals)


def _assert_same_csr(back, csr):
    """``back`` holds exactly ``csr``: equal shape and bitwise equal
    ``rowptr``, ``colind`` and ``values``."""
    assert back.shape == csr.shape
    np.testing.assert_array_equal(back.rowptr, csr.rowptr)
    np.testing.assert_array_equal(back.colind, csr.colind)
    np.testing.assert_array_equal(back.values, csr.values)


@given(sparse_matrices())
@settings(max_examples=60, deadline=None)
def test_coo_csr_roundtrip(csr):
    _assert_same_csr(CSRMatrix.from_coo(csr.to_coo()), csr)


@given(sparse_matrices(), st.integers(0, 2**31 - 1))
@settings(max_examples=60, deadline=None)
def test_matvec_matches_dense(csr, seed):
    x = np.random.default_rng(seed).uniform(-1, 1, size=csr.ncols)
    expected = csr.to_dense() @ x
    np.testing.assert_allclose(csr.matvec(x), expected, rtol=1e-9,
                               atol=1e-9)


@given(sparse_matrices(), st.sampled_from([8, 16, None]))
@settings(max_examples=60, deadline=None)
def test_delta_roundtrip_any_width(csr, width):
    d = DeltaCSR.from_csr(csr, width=width)
    np.testing.assert_array_equal(d.decode_colind(), csr.colind)
    _assert_same_csr(d.to_csr(), csr)


@given(sparse_matrices(), st.integers(1, 50))
@settings(max_examples=60, deadline=None)
def test_decomposition_partitions_nnz(csr, threshold):
    d = DecomposedCSR.from_csr(csr, threshold=threshold)
    # every nonzero lands in exactly one part
    assert d.short.nnz + d.long_nnz == csr.nnz
    # long rows are exactly those over the threshold
    expected_long = np.flatnonzero(csr.row_nnz() > threshold)
    np.testing.assert_array_equal(d.long_rows, expected_long)
    # short part never keeps a long row
    assert np.all(d.short.row_nnz()[expected_long] == 0)


@given(sparse_matrices(), st.one_of(st.none(), st.integers(1, 50)))
@settings(max_examples=60, deadline=None)
def test_decomposed_roundtrip_any_threshold(csr, threshold):
    d = DecomposedCSR.from_csr(csr, threshold=threshold)
    _assert_same_csr(d.to_csr(), csr)


def _edge_matrices():
    """Shapes the random corpus may miss: an empty matrix, a matrix
    whose rows are all empty but one, one with no long rows at the
    default threshold, and power-law rows with long rows to split."""
    return {
        "empty": CSRMatrix([0, 0, 0, 0], [], [], (3, 4)),
        "empty-rows": CSRMatrix([0, 0, 3, 3, 3], [0, 2, 5],
                                [1.0, -2.0, 3.0], (4, 6)),
        "no-long-rows": banded(500, nnz_per_row=5, bandwidth=9, seed=2),
        "long-rows": power_law(3000, avg_deg=12, seed=3),
    }


@pytest.mark.parametrize("name", sorted(_edge_matrices()))
def test_roundtrips_of_edge_shapes(name):
    """COO, delta-CSR at either width and the decomposed format at the
    default and the smallest threshold give back the matrix bitwise."""
    csr = _edge_matrices()[name]
    _assert_same_csr(CSRMatrix.from_coo(csr.to_coo()), csr)
    for width in (8, 16, None):
        _assert_same_csr(DeltaCSR.from_csr(csr, width=width).to_csr(), csr)
    for threshold in (None, 1):
        d = DecomposedCSR.from_csr(csr, threshold=threshold)
        _assert_same_csr(d.to_csr(), csr)
    if name == "no-long-rows":
        assert DecomposedCSR.from_csr(csr).n_long_rows == 0
    if name == "long-rows":
        assert DecomposedCSR.from_csr(csr).n_long_rows > 0


@given(sparse_matrices())
@settings(max_examples=60, deadline=None)
def test_transpose_involution(csr):
    tt = csr.transpose().transpose()
    np.testing.assert_array_equal(tt.rowptr, csr.rowptr)
    np.testing.assert_array_equal(tt.colind, csr.colind)
    np.testing.assert_allclose(tt.values, csr.values)


@given(sparse_matrices())
@settings(max_examples=60, deadline=None)
def test_row_structure_invariants(csr):
    nnz = csr.row_nnz()
    assert nnz.sum() == csr.nnz
    bw = csr.row_bandwidths()
    assert np.all(bw >= 0)
    assert np.all(bw[nnz <= 1] == 0)
    assert np.all(bw < csr.ncols)
    gaps = csr.column_gaps()
    assert np.all(gaps >= 0)  # canonical order -> nonnegative in-row gaps


def _csr_family(csr):
    """Every executed format of ``csr`` that runs the compiled CSR
    kernel."""
    return {
        "csr": csr,
        "sell-c-sigma": SellCSigmaMatrix.from_csr(csr, chunk=4, sigma=8),
    }


def _assert_equals_scipy_bitwise(csr, seed):
    S = csr.to_scipy()
    rng = np.random.default_rng(seed)
    x = rng.uniform(-1, 1, size=csr.ncols)
    blocks = [rng.uniform(-1, 1, size=(csr.ncols, k)) for k in (1, 3, 16)]
    ref = S @ x
    refs = [S @ X for X in blocks]
    for name, fmt in _csr_family(csr).items():
        assert np.array_equal(fmt.matvec(x), ref), name
        out = np.full(csr.nrows, np.nan)
        assert fmt.matvec(x, out=out) is out
        assert np.array_equal(out, ref), name
        for X, refX in zip(blocks, refs):
            assert np.array_equal(fmt.matmat(X), refX), (name, X.shape)
            out = np.full(refX.shape, np.nan)
            assert fmt.matmat(X, out=out) is out
            assert np.array_equal(out, refX), (name, X.shape)


@given(sparse_matrices(), st.integers(0, 2**31 - 1))
@settings(max_examples=60, deadline=None)
def test_csr_family_equals_scipy_bitwise(csr, seed):
    """CSR and SELL-C-sigma run scipy's compiled kernel, so matvec and
    matmat equal ``S @ x`` / ``S @ X`` exactly, not just closely."""
    _assert_equals_scipy_bitwise(csr, seed)


def test_csr_family_equals_scipy_bitwise_long_rows():
    """The same on power-law rows: long rows (hundreds of entries),
    ones the decomposition would split off."""
    csr = power_law(3000, avg_deg=12, seed=3)
    assert DecomposedCSR.from_csr(csr).n_long_rows > 0
    _assert_equals_scipy_bitwise(csr, seed=7)
