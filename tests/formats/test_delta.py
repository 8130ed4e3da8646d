"""Unit tests for delta-compressed CSR."""

import numpy as np
import pytest

from repro.formats import CSRMatrix, DeltaCSR, choose_delta_width


def test_roundtrip_small_gaps(banded_csr):
    d = DeltaCSR.from_csr(banded_csr)
    assert d.width == 8
    np.testing.assert_array_equal(d.decode_colind(), banded_csr.colind)


def test_roundtrip_scattered(scattered_csr):
    d = DeltaCSR.from_csr(scattered_csr)
    np.testing.assert_array_equal(d.decode_colind(), scattered_csr.colind)


def test_forced_widths_roundtrip(scattered_csr):
    for width in (8, 16):
        d = DeltaCSR.from_csr(scattered_csr, width=width)
        assert d.width == width
        np.testing.assert_array_equal(
            d.decode_colind(), scattered_csr.colind
        )


def test_width_choice_narrow_band(banded_csr):
    assert choose_delta_width(banded_csr) == 8


def test_width_choice_wide_gaps():
    # gaps of ~1000 columns: 8-bit overflows everywhere -> 16-bit
    n = 500
    rowptr = np.arange(0, 4 * n + 1, 4, dtype=np.int64)
    colind = np.tile(np.array([0, 1000, 2000, 3000], dtype=np.int32), n)
    csr = CSRMatrix(rowptr, colind, np.ones(4 * n), (n, 4000))
    assert choose_delta_width(csr) == 16


def test_never_both_widths(scattered_csr):
    d = DeltaCSR.from_csr(scattered_csr)
    assert d.deltas.dtype in (np.uint8, np.uint16)  # one dtype for all


def test_row_starts_are_resets(small_random_csr):
    d = DeltaCSR.from_csr(small_random_csr)
    starts = small_random_csr.rowptr[:-1]
    starts = set(starts[starts < small_random_csr.nnz].tolist())
    assert starts.issubset(set(d.reset_pos.tolist()))


def test_compression_shrinks_index(banded_csr):
    d = DeltaCSR.from_csr(banded_csr)
    csr_index = banded_csr.index_nbytes()
    assert d.index_nbytes() < csr_index
    assert d.compression_ratio() > 1.5


def test_to_csr_roundtrip(small_random_csr):
    back = DeltaCSR.from_csr(small_random_csr).to_csr()
    np.testing.assert_array_equal(back.colind, small_random_csr.colind)
    np.testing.assert_array_equal(back.values, small_random_csr.values)
    np.testing.assert_array_equal(back.rowptr, small_random_csr.rowptr)


def test_empty_matrix():
    csr = CSRMatrix([0, 0], np.zeros(0, np.int32), np.zeros(0), (1, 5))
    d = DeltaCSR.from_csr(csr)
    assert d.nnz == 0
    assert d.decode_colind().size == 0


def test_empty_rows(empty_row_csr):
    d = DeltaCSR.from_csr(empty_row_csr)
    np.testing.assert_array_equal(d.decode_colind(), empty_row_csr.colind)


def test_invalid_width_rejected(banded_csr):
    with pytest.raises(ValueError, match="width"):
        DeltaCSR.from_csr(banded_csr, width=12)


def test_values_preserved(small_random_csr):
    d = DeltaCSR.from_csr(small_random_csr)
    np.testing.assert_array_equal(d.values, small_random_csr.values)
