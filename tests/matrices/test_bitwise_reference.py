"""Lazy features and the lean x-access pass against eager references.

The two reference functions below are the eager implementations the
lazy :class:`~repro.matrices.FeatureVector` and the int32 x-access pass
replaced, kept verbatim in spirit: every Table II feature and every
:class:`~repro.machine.cache.XAccessStats` field must equal them
bitwise, with equal dtypes, on every input and cache-line width.
"""

import tracemalloc

import numpy as np
import pytest

from repro.formats import CSRMatrix
from repro.machine.cache import (
    _compute_stats,
    _distinct_lines,
    clear_cache,
    x_access_stats,
)
from repro.matrices import FEATURE_NAMES, extract_features
from repro.matrices import generators as gen
from repro.matrices.features import spmv_working_set_bytes

LINE_ELEMS = (4, 8, 16)


def _reference_row_sums(per_nnz, rowptr):
    out = np.zeros(rowptr.size - 1, dtype=np.float64)
    if per_nnz.size == 0:
        return out
    lengths = np.diff(rowptr)
    nonempty = np.flatnonzero(lengths > 0)
    if nonempty.size:
        out[nonempty] = np.add.reduceat(per_nnz, rowptr[nonempty])
    return out


def reference_features(csr, *, llc_bytes=32 * 1024 * 1024, line_elems=8):
    """Eager extraction of all 14 features at once."""
    n = csr.nrows
    nnz = csr.row_nnz().astype(np.float64)
    bw = csr.row_bandwidths().astype(np.float64)
    size = 1.0 if spmv_working_set_bytes(csr) <= llc_bytes else 0.0
    density = csr.nnz / float(csr.nrows) / float(csr.ncols)
    scatter = np.where(nnz > 0, nnz / (bw + 1.0), 0.0)
    gaps = csr.column_gaps()
    new_group = (gaps != 1).astype(np.float64)
    ngroups = _reference_row_sums(new_group, csr.rowptr)
    clustering = np.where(nnz > 0, ngroups / np.maximum(nnz, 1.0), 0.0)
    miss_flag = (gaps > line_elems).astype(np.float64)
    misses = _reference_row_sums(miss_flag, csr.rowptr)

    def _sd(x):
        return float(np.sqrt(np.mean((x - x.mean()) ** 2))) if x.size else 0.0

    return {
        "size": size,
        "density": float(density),
        "nnz_min": float(nnz.min(initial=0.0)) if n else 0.0,
        "nnz_max": float(nnz.max(initial=0.0)) if n else 0.0,
        "nnz_avg": float(nnz.mean()) if n else 0.0,
        "nnz_sd": _sd(nnz),
        "bw_min": float(bw.min(initial=0.0)) if n else 0.0,
        "bw_max": float(bw.max(initial=0.0)) if n else 0.0,
        "bw_avg": float(bw.mean()) if n else 0.0,
        "bw_sd": _sd(bw),
        "scatter_avg": float(scatter.mean()) if n else 0.0,
        "scatter_sd": _sd(scatter),
        "clustering_avg": float(clustering.mean()) if n else 0.0,
        "misses_avg": float(misses.mean()) if n else 0.0,
    }


def reference_stats(csr, line_elems):
    """Eager x-access pass over int64 gaps with ``np.unique``."""
    if csr.nnz == 0:
        zero = np.zeros(csr.nrows, dtype=np.float64)
        return zero, zero.copy(), 0
    gaps = csr.column_gaps()
    starts = csr.rowptr[:-1]
    starts = starts[starts < csr.nnz]
    first_cols = csr.colind[starts].astype(np.int64)
    inter_row = np.abs(np.diff(first_cols, prepend=first_cols[:1] - 10**9))
    gaps = gaps.copy()
    gaps[starts] = inter_row
    may_miss = gaps > line_elems
    strided = may_miss & (gaps <= 8 * line_elems)
    potential = _reference_row_sums(may_miss.astype(np.float64), csr.rowptr)
    strided_pot = _reference_row_sums(strided.astype(np.float64), csr.rowptr)
    unique_lines = int(
        np.unique(csr.colind.astype(np.int64) // line_elems).size
    )
    return potential, strided_pot, unique_lines


def _from_rows(row_cols, ncols):
    lengths = [len(c) for c in row_cols]
    rowptr = np.concatenate(([0], np.cumsum(lengths))).astype(np.int64)
    colind = np.concatenate(
        [np.asarray(c, dtype=np.int64) for c in row_cols] or [[]]
    ).astype(np.int32)
    values = np.linspace(1.0, 2.0, colind.size)
    return CSRMatrix(rowptr, colind, values, (len(row_cols), ncols))


def _empty_rows():
    # Leading, interior and trailing empty rows around scattered ones.
    rng = np.random.default_rng(5)
    rows = []
    for i in range(60):
        k = 0 if i < 3 or i % 4 == 1 or i > 56 else int(rng.integers(1, 9))
        rows.append(np.sort(rng.choice(500, size=k, replace=False)))
    return _from_rows(rows, 500)


def _ragged_width():
    # ncols = 1003 is no multiple of 4, 8 or 16; the last column is used.
    rng = np.random.default_rng(6)
    rows = [np.sort(rng.choice(1003, size=7, replace=False))
            for _ in range(200)]
    rows[-1] = np.array([0, 500, 1002])
    return _from_rows(rows, 1003)


def _hypersparse(nrows=300, ncols=2**30):
    rng = np.random.default_rng(7)
    rows = [np.unique(rng.integers(0, ncols, size=int(rng.integers(0, 3))))
            for _ in range(nrows)]
    rows[-1] = np.array([5, ncols - 1])
    return _from_rows(rows, ncols)


INPUTS = {
    "banded": lambda: gen.banded(1500, nnz_per_row=9, jitter=1.0, seed=1),
    "random_uniform": lambda: gen.random_uniform(1500, 16, seed=2),
    "power_law": lambda: gen.power_law(1500, avg_deg=12, seed=3),
    "short_rows": lambda: gen.short_rows(1500, seed=4),
    "fem_like": lambda: gen.fem_like(1500, seed=5),
    "with_dense_rows": lambda: gen.with_dense_rows(
        gen.random_uniform(1500, 8, seed=6), n_dense=4, dense_nnz=375,
        seed=6),
    "poisson2d": lambda: gen.poisson2d(40),
    "empty_rows": _empty_rows,
    "all_zero": lambda: CSRMatrix(np.zeros(8, dtype=np.int64),
                                  np.zeros(0, dtype=np.int32),
                                  np.zeros(0), (7, 13)),
    "ragged_width": _ragged_width,
    "hypersparse": _hypersparse,
}


@pytest.fixture(scope="module", params=sorted(INPUTS))
def case(request):
    return request.param, INPUTS[request.param]()


def _bitwise(new, ref):
    new, ref = np.asarray(new), np.asarray(ref)
    return new.dtype == ref.dtype and np.array_equal(new, ref)


@pytest.mark.parametrize("line_elems", LINE_ELEMS)
def test_features_equal_reference_bitwise(case, line_elems):
    name, csr = case
    ref = reference_features(csr, llc_bytes=1 << 20, line_elems=line_elems)
    lazy = extract_features(csr, llc_bytes=1 << 20, line_elems=line_elems)
    for feature in FEATURE_NAMES:
        value = getattr(lazy, feature)
        assert type(value) is float, (name, feature)
        assert _bitwise(value, ref[feature]), (name, feature)
    # A fresh vector read through as_array gives the same bits.
    array = extract_features(
        csr, llc_bytes=1 << 20, line_elems=line_elems
    ).as_array()
    assert _bitwise(array, np.array([ref[f] for f in FEATURE_NAMES]))


@pytest.mark.parametrize("line_elems", LINE_ELEMS)
def test_x_access_stats_equal_reference_bitwise(case, line_elems):
    name, csr = case
    potential, strided, unique_lines = reference_stats(csr, line_elems)
    clear_cache()
    stats = x_access_stats(csr, line_elems)
    assert _bitwise(stats.potential_misses, potential), name
    assert _bitwise(stats.strided_potential, strided), name
    assert type(stats.unique_x_lines) is int
    assert stats.unique_x_lines == unique_lines, name


@pytest.mark.parametrize("line_elems", LINE_ELEMS)
def test_distinct_lines_match_unique_on_both_paths(line_elems):
    rng = np.random.default_rng(8)
    dense = np.sort(rng.integers(0, 4000, size=3000)).astype(np.int32)
    sparse = rng.integers(0, 2**30, size=200).astype(np.int32)
    for cols, ncols in ((dense, 4000), (sparse, 2**30),
                        (dense.astype(np.int64), 4000)):
        expected = np.unique(cols.astype(np.int64) // line_elems).size
        assert _distinct_lines(cols, ncols, line_elems) == expected


def test_hypersparse_pass_allocates_under_one_mib():
    csr = _hypersparse()
    for line_elems in LINE_ELEMS:
        tracemalloc.start()
        try:
            _compute_stats(csr, line_elems)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20, (line_elems, peak)
