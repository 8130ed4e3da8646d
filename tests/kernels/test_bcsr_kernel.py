"""Unit tests for the BCSR kernel and its pool registration."""

import numpy as np
import pytest

from repro.kernels import BCSRSpMV, merged_pool_kernel, pool_kernel
from repro.machine import KNC
from repro.model import AnalyticModel


def test_registered_as_pool_optimization():
    kernel = pool_kernel("bcsr")
    assert isinstance(kernel, BCSRSpMV)
    assert kernel.block == 2


def test_numeric_exactness(small_random_csr, x300):
    kernel = BCSRSpMV(block=2)
    y = kernel.run_numeric(small_random_csr, x300)
    np.testing.assert_allclose(
        y, small_random_csr.matvec(x300), rtol=1e-12
    )


def test_cannot_merge_with_flag_optimizations():
    with pytest.raises(ValueError, match="jointly"):
        merged_pool_kernel(("bcsr", "prefetching"))


def test_single_name_merge_returns_kernel():
    kernel = merged_pool_kernel(("bcsr",))
    assert isinstance(kernel, BCSRSpMV)


def test_engine_run(banded_csr):
    model = AnalyticModel(KNC, nthreads=32)
    kernel = BCSRSpMV(block=2)
    r = model.run(kernel, kernel.preprocess(banded_csr))
    assert r.gflops > 0
    assert np.isfinite(r.seconds)


def test_wins_on_block_structured_loses_on_pointwise():
    """The A6 trade-off in miniature."""
    from repro.kernels import baseline_kernel
    from repro.matrices.generators import fem_like, random_uniform

    model = AnalyticModel(KNC)
    base = baseline_kernel()
    bcsr = BCSRSpMV(block=2)

    blocked = fem_like(40_000, block=2, neighbors=12, reach=30, seed=1)
    point = random_uniform(40_000, nnz_per_row=10.0, seed=2)

    def ratio(csr):
        r0 = model.run(base, base.preprocess(csr))
        r1 = model.run(bcsr, bcsr.preprocess(csr))
        return r1.gflops / r0.gflops

    assert ratio(blocked) > 1.2
    assert ratio(point) < 1.05


def test_preprocessing_cost_positive(banded_csr):
    kernel = BCSRSpMV(block=2)
    assert kernel.preprocessing_seconds(banded_csr, KNC) > 0


def test_flops_exclude_fill(banded_csr):
    kernel = BCSRSpMV(block=2)
    data = kernel.preprocess(banded_csr)
    cost = kernel.cost(data, KNC, kernel.partition(data, 8))
    assert cost.flops == pytest.approx(2.0 * banded_csr.nnz)


def test_block_validation():
    with pytest.raises(ValueError):
        BCSRSpMV(block=0)


def test_repeat_cost_reuses_block_pattern(monkeypatch, banded_csr):
    """``partition`` and ``cost`` share one block-coordinate pattern per
    matrix, so a second ``cost()`` reads the memoized x-access
    statistics instead of recomputing them."""
    from repro.machine import cache

    kernel = BCSRSpMV(block=2)
    data = kernel.preprocess(banded_csr)
    first = kernel.cost(data, KNC, kernel.partition(data, 32))
    assert data.block_pattern() is data.block_pattern()

    def recompute(*args):
        raise AssertionError("x-access statistics recomputed")

    monkeypatch.setattr(cache, "_compute_stats", recompute)
    second = kernel.cost(data, KNC, kernel.partition(data, 32))
    for name in ("compute_cycles", "stream_bytes", "latency_ns"):
        np.testing.assert_array_equal(getattr(second, name),
                                      getattr(first, name))
    assert second.max_unit_latency_ns == first.max_unit_latency_ns
