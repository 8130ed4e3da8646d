"""Property-based tests on feature extraction and the cache model."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.machine import KNC
from repro.machine.cache import (
    clear_cache,
    residency_fractions,
    x_access_stats,
    x_miss_cost,
)
from repro.matrices.features import FEATURE_NAMES, extract_features

from .test_formats_prop import sparse_matrices


@given(sparse_matrices())
@settings(max_examples=60, deadline=None)
def test_features_finite_and_bounded(csr):
    f = extract_features(csr)
    arr = f.as_array()
    assert np.all(np.isfinite(arr))
    assert f.size in (0.0, 1.0)
    assert 0.0 <= f.density <= 1.0
    assert f.nnz_min <= f.nnz_avg <= f.nnz_max
    assert f.bw_min <= f.bw_avg <= f.bw_max
    assert 0.0 <= f.clustering_avg <= 1.0
    assert 0.0 <= f.scatter_avg <= 1.0
    assert f.misses_avg >= 0.0
    assert f.nnz_avg * csr.nrows == pytest.approx(csr.nnz)  # consistency


@given(sparse_matrices())
@settings(max_examples=60, deadline=None)
def test_features_invariant_to_value_scaling(csr):
    """Structure features must ignore the numeric values."""
    scaled = type(csr)(
        csr.rowptr.copy(), csr.colind.copy(), csr.values * 3.7, csr.shape
    )
    np.testing.assert_array_equal(
        extract_features(csr).as_array(),
        extract_features(scaled).as_array(),
    )


@given(sparse_matrices())
@settings(max_examples=60, deadline=None)
def test_cache_model_invariants(csr):
    clear_cache()
    stats = x_access_stats(csr, KNC.line_elems)
    assert np.all(stats.strided_potential <= stats.potential_misses)
    assert np.all(stats.potential_misses <= csr.row_nnz())
    assert stats.unique_x_lines <= csr.nnz
    latency, dram_bytes = x_miss_cost(csr, KNC, stats.potential_misses,
                                      stats.strided_potential)
    assert np.all(latency >= 0)
    assert np.all(dram_bytes >= 0)
    local, llc = residency_fractions(csr, KNC)
    assert 0.0 <= local <= llc <= 1.0


@given(sparse_matrices(), st.integers(0, len(FEATURE_NAMES) - 1))
@settings(max_examples=40, deadline=None)
def test_keyed_access_matches_array(csr, idx):
    f = extract_features(csr)
    name = FEATURE_NAMES[idx]
    assert f[name] == f.as_array()[idx]
