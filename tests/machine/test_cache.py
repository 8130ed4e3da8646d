"""Unit tests for the x-access cache model."""

import numpy as np
import pytest

from repro.formats import CSRMatrix
from repro.machine import KNC, BROADWELL
from repro.machine.cache import (
    clear_cache,
    residency_fractions,
    x_access_stats,
    x_miss_cost,
    x_working_set_bytes,
)


@pytest.fixture(autouse=True)
def _fresh_cache():
    clear_cache()
    yield
    clear_cache()


def _row_costs(csr, machine, **kwargs):
    """Per-row exposed miss latency (ns) and x DRAM bytes, from each
    row's own access counts."""
    stats = x_access_stats(csr, machine.line_elems)
    return x_miss_cost(csr, machine, stats.potential_misses,
                       stats.strided_potential, **kwargs)


def _csr(rowptr, colind, ncols):
    rowptr = np.asarray(rowptr, dtype=np.int64)
    colind = np.asarray(colind, dtype=np.int32)
    return CSRMatrix(rowptr, colind, np.ones(colind.size),
                     (rowptr.size - 1, ncols))


def test_dense_run_has_no_potential_misses():
    # columns 0..7 in one row: all gaps 1, first access continues from
    # the same place next row
    csr = _csr([0, 8, 16], list(range(8)) + list(range(8)), 8)
    stats = x_access_stats(csr, line_elems=8)
    # row starts: first row's start has a huge synthetic predecessor
    # distance (counts), second row starts where row 1 started (gap 0)
    assert stats.potential_misses[1] == 0.0


def test_wide_gaps_count_as_misses():
    csr = _csr([0, 3], [0, 100, 200], 256)
    stats = x_access_stats(csr, line_elems=8)
    assert stats.potential_misses[0] >= 2.0


def test_strided_subset_of_potential():
    # gaps of 16 (strided, prefetchable) vs gaps of 1000 (random)
    strided = _csr([0, 4], [0, 16, 32, 48], 4096)
    random = _csr([0, 4], [0, 1000, 2000, 3000], 4096)
    ss = x_access_stats(strided, line_elems=8)
    rs = x_access_stats(random, line_elems=8)
    assert ss.strided_potential[0] >= 3.0
    assert rs.strided_potential[0] == 0.0
    assert np.all(ss.strided_potential <= ss.potential_misses)


def test_unique_lines_counts_distinct_cache_lines():
    csr = _csr([0, 3], [0, 1, 64], 128)  # cols 0,1 share a line
    stats = x_access_stats(csr, line_elems=8)
    assert stats.unique_x_lines == 2
    assert x_working_set_bytes(csr, KNC) == 2 * 64


def test_residency_small_x_fully_resident():
    csr = _csr([0, 2], [0, 8], 16)
    local, llc = residency_fractions(csr, KNC)
    assert local == 1.0 and llc == 1.0


def test_residency_decreases_with_x_size(scattered_csr):
    from repro.matrices.generators import random_uniform

    big = random_uniform(200_000, nnz_per_row=4.0, seed=1)
    l_small, _ = residency_fractions(scattered_csr, KNC)
    l_big, llc_big = residency_fractions(big, KNC)
    assert l_big < l_small
    assert llc_big >= l_big


def test_cost_zero_when_resident():
    csr = _csr([0, 2], [0, 8], 16)
    latency, dram_bytes = _row_costs(csr, KNC)
    assert latency.sum() == 0.0
    assert dram_bytes.sum() == 0.0


def test_hw_prefetch_hides_strided_latency():
    from repro.matrices.generators import random_uniform

    big = random_uniform(300_000, nnz_per_row=8.0, seed=2)
    weak = KNC.with_(hw_prefetch_eff=0.0)
    strong = KNC.with_(hw_prefetch_eff=0.9)
    lat_weak = _row_costs(big, weak)[0].sum()
    lat_strong = _row_costs(big, strong)[0].sum()
    assert lat_strong <= lat_weak


def test_software_prefetch_inflates_traffic_not_latency():
    from repro.matrices.generators import random_uniform

    big = random_uniform(300_000, nnz_per_row=8.0, seed=3)
    plain_lat, plain_bytes = _row_costs(big, KNC, software_prefetch=False)
    pf_lat, pf_bytes = _row_costs(big, KNC, software_prefetch=True)
    assert pf_bytes.sum() >= plain_bytes.sum()
    np.testing.assert_allclose(pf_lat, plain_lat)


def test_banded_matrix_cheaper_than_scattered():
    # Sizes big enough that x cannot stay cache-resident.
    from repro.matrices.generators import banded, random_uniform

    band = banded(300_000, nnz_per_row=9, bandwidth=20, seed=1)
    scat = random_uniform(300_000, nnz_per_row=9.0, seed=2)
    lat_band = _row_costs(band, KNC)[0].sum()
    lat_scat = _row_costs(scat, KNC)[0].sum()
    assert lat_band < 0.1 * lat_scat


def test_broadwell_l3_softens_latency():
    from repro.matrices.generators import random_uniform

    # x working set ~1.6 MB: beyond per-core caches on both platforms,
    # inside Broadwell's L3 but spread over KNC's remote L2s.
    big = random_uniform(200_000, nnz_per_row=6.0, seed=4)
    lat_knc = _row_costs(big, KNC)[0].sum()
    lat_bdw = _row_costs(big, BROADWELL)[0].sum()
    assert lat_bdw < lat_knc


def test_stats_memoized():
    csr = _csr([0, 2], [0, 64], 128)
    a = x_access_stats(csr, 8)
    b = x_access_stats(csr, 8)
    assert a is b


def test_empty_matrix():
    csr = _csr([0, 0], [], 8)
    latency, _ = _row_costs(csr, KNC)
    assert latency.shape == (1,)
    assert latency.sum() == 0.0
