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
    from repro.machine.cache import stream_cost, stream_counts

    def cost(cols, ncols):
        return stream_cost(stream_counts(cols, ncols, KNC.line_elems), KNC)

    # resident tiny stream: free
    free = cost(np.arange(16), 16)
    assert free["latency_ns"] == 0.0
    # huge random stream: costly
    rng = np.random.default_rng(0)
    # working set must exceed the LLC share for DRAM traffic to appear
    big = cost(rng.integers(0, 20_000_000, size=500_000), 20_000_000)
    assert big["latency_ns"] > 0.0
    assert big["dram_bytes"] > 0.0
    # empty stream
    empty = cost(np.zeros(0, dtype=np.int64), 10)
    assert empty["latency_ns"] == 0.0


@pytest.fixture(scope="module")
def fem_sell():
    from repro.matrices.generators import fem_like

    k = SellCSigmaSpMV(chunk=8)
    return k, k.preprocess(fem_like(65536, seed=5))


def _proxy_partition(data, nthreads):
    """balanced-nnz over a CSR proxy with one row per chunk, sized by
    its stored slots: how the kernel partitioned before it read
    ``chunk_ptr`` alone."""
    from repro.formats import CSRMatrix
    from repro.sched import balanced_nnz

    slots = int(data.chunk_ptr[-1])
    proxy = CSRMatrix(data.chunk_ptr.copy(),
                      np.zeros(slots, dtype=np.int32), np.zeros(slots),
                      (data.nchunks, max(data.ncols, 1)), trusted=True)
    return balanced_nnz(proxy, nthreads)


def _assert_same_partition(got, expected):
    assert (got.nthreads, got.kind) == (expected.nthreads, expected.kind)
    np.testing.assert_array_equal(got.thread_of_row, expected.thread_of_row)
    np.testing.assert_array_equal(got.boundaries, expected.boundaries)


@pytest.mark.parametrize("nthreads", [1, 7, 240, 100_000])
def test_partition_reads_chunk_ptr_alone(fem_sell, nthreads):
    """The chunk partition equals the proxy one without allocating an
    nnz-sized proxy (1.67 M stored slots, 19 MiB of proxy arrays)."""
    import tracemalloc

    k, data = fem_sell
    expected = _proxy_partition(data, nthreads)
    tracemalloc.start()
    try:
        got = k.partition(data, nthreads)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    _assert_same_partition(got, expected)
    assert peak < 1 << 20


def test_partition_of_skewed_and_empty_matrices(skewed_csr):
    from repro.formats import CSRMatrix

    empty = CSRMatrix(np.zeros(5, dtype=np.int64),
                      np.zeros(0, dtype=np.int32), np.zeros(0), (4, 3))
    k = SellCSigmaSpMV(chunk=4)
    for csr in (skewed_csr, empty):
        data = k.preprocess(csr)
        for nthreads in (1, 3, 64):
            _assert_same_partition(k.partition(data, nthreads),
                                   _proxy_partition(data, nthreads))


def test_cost_builds_the_x_stream_once(fem_sell, monkeypatch):
    """A repeat ``cost()`` on the same matrix reads the memoized stream
    counts instead of rescanning every stored slot."""
    from repro.kernels import sellcs

    k, data = fem_sell
    calls = []
    counts = sellcs.stream_counts

    def counting(*args, **kwargs):
        calls.append(args)
        return counts(*args, **kwargs)

    monkeypatch.setattr(sellcs, "stream_counts", counting)
    monkeypatch.setattr(sellcs, "_STREAM_COUNTS",
                        type(sellcs._STREAM_COUNTS)())
    partition = k.partition(data, 64)
    first = k.cost(data, KNC, partition)
    second = k.cost(data, KNC, partition)
    assert len(calls) == 1
    np.testing.assert_array_equal(first.latency_ns, second.latency_ns)
    np.testing.assert_array_equal(first.stream_bytes, second.stream_bytes)
