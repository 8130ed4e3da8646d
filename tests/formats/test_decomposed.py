"""Unit tests for the decomposed (long-row split) format."""

import numpy as np
import pytest

from repro.formats import (
    CSRMatrix,
    DecomposedCSR,
    default_long_row_threshold,
)


def test_long_rows_detected(skewed_csr):
    d = DecomposedCSR.from_csr(skewed_csr, threshold=50)
    assert d.n_long_rows == 2
    assert set(d.long_rows.tolist()) == {17, 500}


def test_short_part_has_long_rows_emptied(skewed_csr):
    d = DecomposedCSR.from_csr(skewed_csr, threshold=50)
    short_nnz = d.short.row_nnz()
    assert short_nnz[17] == 0 and short_nnz[500] == 0
    assert d.short.nnz + d.long_nnz == skewed_csr.nnz


def test_parts_are_the_row_slices(skewed_csr):
    """Each part holds exactly the stored entries of its rows, in row
    order."""
    d = DecomposedCSR.from_csr(skewed_csr, threshold=50)
    long = np.isin(np.arange(skewed_csr.nrows), d.long_rows)
    row_nnz = skewed_csr.row_nnz()
    for part, rows in ((d.short, np.flatnonzero(~long)),
                       (d.long_part(), d.long_rows)):
        slices = [skewed_csr.row_slice(r) for r in rows]
        np.testing.assert_array_equal(
            part.colind, np.concatenate([c for c, _ in slices]))
        np.testing.assert_array_equal(
            part.values, np.concatenate([v for _, v in slices]))
    np.testing.assert_array_equal(d.short.row_nnz(),
                                  np.where(long, 0, row_nnz))
    np.testing.assert_array_equal(d.long_part().row_nnz(),
                                  row_nnz[d.long_rows])


def test_no_long_rows_for_uniform(banded_csr):
    d = DecomposedCSR.from_csr(banded_csr)
    assert d.n_long_rows == 0
    assert d.long_part() is None
    back = d.to_csr()
    np.testing.assert_array_equal(back.rowptr, banded_csr.rowptr)
    np.testing.assert_array_equal(back.colind, banded_csr.colind)
    np.testing.assert_array_equal(back.values, banded_csr.values)


def test_to_csr_roundtrip(skewed_csr):
    d = DecomposedCSR.from_csr(skewed_csr, threshold=50)
    back = d.to_csr()
    np.testing.assert_array_equal(back.rowptr, skewed_csr.rowptr)
    np.testing.assert_array_equal(back.colind, skewed_csr.colind)
    np.testing.assert_allclose(back.values, skewed_csr.values)


def test_nnz_and_bytes_accounting(skewed_csr):
    d = DecomposedCSR.from_csr(skewed_csr, threshold=50)
    assert d.nnz == skewed_csr.nnz
    assert d.value_nbytes() == skewed_csr.value_nbytes()
    # index side carries the extra long-row structures
    assert d.index_nbytes() >= skewed_csr.index_nbytes()


def test_default_threshold_properties(skewed_csr, banded_csr):
    t_skew = default_long_row_threshold(skewed_csr, nthreads=64)
    assert t_skew >= 8
    # uniform matrix: threshold far above the max row length
    t_band = default_long_row_threshold(banded_csr, nthreads=64)
    assert t_band > int(banded_csr.row_nnz().max())


def test_invalid_threshold_rejected(banded_csr):
    with pytest.raises(ValueError, match="threshold"):
        DecomposedCSR.from_csr(banded_csr, threshold=0)


def test_threshold_boundary_exact():
    # row of exactly `threshold` nnz stays short; threshold+1 goes long
    rowptr = np.array([0, 3, 7], dtype=np.int64)
    colind = np.arange(7, dtype=np.int32)
    csr = CSRMatrix(rowptr, colind, np.ones(7), (2, 7))
    d = DecomposedCSR.from_csr(csr, threshold=3)
    assert d.n_long_rows == 1
    assert d.long_rows.tolist() == [1]


def test_empty_matrix():
    csr = CSRMatrix([0, 0], np.zeros(0, np.int32), np.zeros(0), (1, 3))
    d = DecomposedCSR.from_csr(csr, threshold=4)
    assert d.n_long_rows == 0
    back = d.to_csr()
    assert back.shape == (1, 3) and back.nnz == 0
    np.testing.assert_array_equal(back.rowptr, [0, 0])
