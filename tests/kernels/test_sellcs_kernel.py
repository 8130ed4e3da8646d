"""Unit tests for the SELL-C-sigma kernel."""

import numpy as np
import pytest

from repro.kernels import SellCSigmaSpMV, baseline_kernel, pool_kernel
from repro.machine import KNC
from repro.model import AnalyticModel


def test_registered_in_pool():
    k = pool_kernel("sell-c-sigma")
    assert isinstance(k, SellCSigmaSpMV)


def test_numeric_exactness(small_random_csr, x300):
    k = SellCSigmaSpMV(chunk=8)
    np.testing.assert_allclose(
        k.run_numeric(small_random_csr, x300),
        small_random_csr.matvec(x300),
        rtol=1e-12,
    )


def test_engine_run(banded_csr):
    model = AnalyticModel(KNC, nthreads=32)
    k = SellCSigmaSpMV(chunk=8)
    r = model.run(k, k.preprocess(banded_csr))
    assert r.gflops > 0 and np.isfinite(r.seconds)


def test_wins_on_uniform_rows_loses_on_power_law():
    """SELL's published trade-off: lockstep SIMD on regular rows,
    padding explosion on heavy-tailed ones."""
    from repro.matrices.generators import banded, power_law

    model = AnalyticModel(KNC)
    base = baseline_kernel()
    sell = SellCSigmaSpMV(chunk=8)

    def ratio(csr):
        r0 = model.run(base, base.preprocess(csr))
        r1 = model.run(sell, sell.preprocess(csr))
        return r1.gflops / r0.gflops

    regular = banded(60_000, nnz_per_row=9, bandwidth=20, seed=51)
    heavy = power_law(60_000, avg_deg=8.0, alpha=2.0, seed=52)
    assert ratio(regular) > 1.1
    assert ratio(heavy) < 1.0


def test_preprocessing_cost_positive(banded_csr):
    k = SellCSigmaSpMV(chunk=8)
    assert k.preprocessing_seconds(banded_csr, KNC) > 0


def test_flops_exclude_padding(skewed_csr):
    k = SellCSigmaSpMV(chunk=8)
    data = k.preprocess(skewed_csr)
    cost = k.cost(data, KNC, k.partition(data, 8))
    assert cost.flops == pytest.approx(2.0 * skewed_csr.nnz)


def test_chunk_validation():
    with pytest.raises(ValueError):
        SellCSigmaSpMV(chunk=0)


def test_stream_cost_helper():
    from repro.machine.cache import stream_cost

    # resident tiny stream: free
    free = stream_cost(np.arange(16), 16, KNC)
    assert free["latency_ns"] == 0.0
    # huge random stream: costly
    rng = np.random.default_rng(0)
    # working set must exceed the LLC share for DRAM traffic to appear
    big = stream_cost(rng.integers(0, 20_000_000, size=500_000),
                      20_000_000, KNC)
    assert big["latency_ns"] > 0.0
    assert big["dram_bytes"] > 0.0
    # empty stream
    empty = stream_cost(np.zeros(0, dtype=np.int64), 10, KNC)
    assert empty["latency_ns"] == 0.0
