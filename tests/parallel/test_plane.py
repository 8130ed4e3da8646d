"""The parallel executor: bit-identity, contracts, telemetry.

The headline invariant: a parallel matvec over contiguous row chunks is
*bit-identical* to the serial kernel for every format, schedule policy
and thread count — each row's sum is computed by exactly one chunk from
that row's own nonzeros in stored order, and blocked/sorted formats
(BCSR, SELL-C-sigma) snap chunk boundaries to their regrouping
granularity (``row_align``).
"""

import numpy as np
import pytest

from repro.engine import (
    ExecutorSpec,
    GuardedKernel,
    ParallelExecutor,
    build_executor,
)
from repro.kernels import (
    ConfiguredSpMV,
    SpMVConfig,
    baseline_kernel,
    merged_pool_kernel,
)
from repro.kernels.bcsr import BCSRSpMV
from repro.kernels.sellcs import SellCSigmaSpMV
from repro.parallel import (
    ParallelConfig,
    active_worker_counts,
    get_executor,
)
from repro.sched import SCHEDULE_POLICIES


def _variants():
    return [
        ("csr", baseline_kernel()),
        ("csr+delta", merged_pool_kernel(("compression",))),
        ("csr+split", merged_pool_kernel(("decomposition",))),
        ("csr+unroll", merged_pool_kernel(("unrolling",))),
        ("bcsr2", BCSRSpMV(block=2)),
        ("bcsr3", BCSRSpMV(block=3)),
        ("sell-4", SellCSigmaSpMV(chunk=4)),
        ("sell-8-64", SellCSigmaSpMV(chunk=8, sigma=64)),
    ]


@pytest.fixture(scope="module", params=["skewed", "banded", "empty-rows"])
def matrix(request, skewed_csr, banded_csr, empty_row_csr):
    return {
        "skewed": skewed_csr,
        "banded": banded_csr,
        "empty-rows": empty_row_csr,
    }[request.param]


@pytest.mark.parametrize("name,kernel", _variants(),
                         ids=[n for n, _ in _variants()])
@pytest.mark.parametrize("nthreads", [1, 2, 3, 8])
def test_matvec_bit_identical_every_kernel(name, kernel, nthreads,
                                           matrix, rng):
    x = rng.standard_normal(matrix.ncols)
    serial = kernel.apply(kernel.preprocess(matrix), x)
    got = ParallelExecutor(matrix, kernel, nthreads=nthreads).apply(x)
    np.testing.assert_array_equal(got, serial)


@pytest.mark.parametrize("schedule", sorted(SCHEDULE_POLICIES))
@pytest.mark.parametrize("nthreads", [1, 2, 4, 8, 64])
def test_matvec_bit_identical_every_schedule(schedule, nthreads,
                                             skewed_csr, rng):
    x = rng.standard_normal(skewed_csr.ncols)
    kernel = baseline_kernel()
    serial = kernel.apply(kernel.preprocess(skewed_csr), x)
    ex = ParallelExecutor(skewed_csr, kernel, nthreads=nthreads,
                          schedule=schedule)
    for _ in range(2):  # dynamic assignment may differ run to run
        got = ex.apply(x)
        np.testing.assert_array_equal(got, serial)


def test_matmat_matches_serial_tightly(banded_csr, rng):
    """Multi-RHS is bit-identical to serial, like matvec: the compiled
    kernel sums each row on its own, so chunking cannot reassociate."""
    X = rng.standard_normal((banded_csr.ncols, 5))
    kernel = baseline_kernel()
    serial = kernel.apply_multi(kernel.preprocess(banded_csr), X)
    got = ParallelExecutor(banded_csr, kernel, nthreads=4).apply_multi(X)
    np.testing.assert_array_equal(got, serial)


def test_out_buffer_contract(skewed_csr, rng):
    x = rng.standard_normal(skewed_csr.ncols)
    ex = ParallelExecutor(skewed_csr, baseline_kernel(), nthreads=4)
    out = np.empty(skewed_csr.nrows)
    got = ex.apply(x, out=out)
    assert got is out
    np.testing.assert_array_equal(out, ex.apply(x))
    with pytest.raises(ValueError):
        ex.apply(x, out=np.empty(skewed_csr.nrows + 1))


def test_row_align_snaps_boundaries(banded_csr):
    for kernel in (BCSRSpMV(block=3), SellCSigmaSpMV(chunk=4, sigma=32)):
        align = kernel.row_align
        assert align > 1
        ex = ParallelExecutor(banded_csr, kernel, nthreads=7)
        for chunk in ex.chunks:
            assert chunk.lo % align == 0 or chunk.lo == 0
            assert chunk.hi % align == 0 or chunk.hi == banded_csr.nrows


def test_guard_composes_both_orders(skewed_csr, rng):
    """The guard composes under the parallel executor, one guarded
    apply per chunk; recovery of the whole parallel apply is the
    supervised executor's serial fallback."""
    x = rng.standard_normal(skewed_csr.ncols)
    base = baseline_kernel()
    serial = base.apply(base.preprocess(skewed_csr), x)

    inner = ParallelExecutor(skewed_csr, GuardedKernel(base), nthreads=4)
    np.testing.assert_array_equal(inner.apply(x), serial)


@pytest.mark.parametrize("kernel", [
    baseline_kernel(),
    ConfiguredSpMV(SpMVConfig(compress=True, decompose=True,
                              decompose_threshold=50)),
    GuardedKernel(baseline_kernel()),
], ids=["csr", "csr+delta+split", "guard"])
def test_chunks_share_callers_arrays(kernel, skewed_csr):
    """Chunks are row windows of the caller's CSR: no chunk copies
    ``colind`` or ``values``."""
    ex = ParallelExecutor(skewed_csr, kernel, nthreads=4)
    assert len(ex.chunks) == 4
    for chunk in ex.chunks:
        inner = getattr(chunk.data, "inner", chunk.data)
        for window in (chunk.data.csr, inner.csr):
            assert window.nnz > 0
            assert np.shares_memory(window.colind, skewed_csr.colind)
            assert np.shares_memory(window.values, skewed_csr.values)


def test_worker_exception_propagates(skewed_csr):
    ex = ParallelExecutor(skewed_csr, baseline_kernel(), nthreads=4)
    with pytest.raises(ValueError):
        ex.apply(np.ones(skewed_csr.ncols + 3))


def test_measurement_recorded(skewed_csr, rng):
    x = rng.standard_normal(skewed_csr.ncols)
    ex = ParallelExecutor(skewed_csr, baseline_kernel(), nthreads=4)
    assert ex.last_measurement is None
    ex.apply(x)
    m = ex.last_measurement
    assert m.nthreads == 4
    assert len(m.thread_wall_seconds) == 4
    assert len(m.thread_cpu_seconds) == 4
    assert sum(m.chunks_per_thread) == len(ex.chunks)
    assert m.imbalance >= 1.0
    assert m.wall_imbalance >= 1.0
    assert m.wall_seconds > 0.0
    s = m.summary()
    assert s["schedule"] == "balanced-nnz"
    assert s["imbalance"] == m.imbalance


def test_dynamic_schedule_drains_queue(skewed_csr, rng):
    x = rng.standard_normal(skewed_csr.ncols)
    ex = ParallelExecutor(skewed_csr, baseline_kernel(), nthreads=4,
                          schedule="dynamic")
    assert ex.partition.is_dynamic
    serial = skewed_csr.matvec(x)
    np.testing.assert_array_equal(ex.apply(x), serial)
    assert sum(ex.last_measurement.chunks_per_thread) == len(ex.chunks)
    assert ex.last_measurement.dynamic


def test_executor_pool_reused():
    first = get_executor(3)
    assert get_executor(3) is first
    assert 3 in active_worker_counts()


def test_parallel_spmv_facade(skewed_csr, rng):
    x = rng.standard_normal(skewed_csr.ncols)
    op = build_executor(skewed_csr, ExecutorSpec(
        guard=True, parallel=ParallelConfig(nthreads=4)))
    np.testing.assert_array_equal(op.matvec(x), skewed_csr.matvec(x))
    np.testing.assert_array_equal(op @ x, skewed_csr.matvec(x))
    X = rng.standard_normal((skewed_csr.ncols, 3))
    np.testing.assert_array_equal(op.matmat(X), skewed_csr.matmat(X))
    assert op.shape == skewed_csr.shape
    assert op.nthreads <= 4
    assert op.last_measurement is not None


def test_config_signature_stable():
    cfg = ParallelConfig(4, "static-rows", None)
    assert cfg.signature() == (
        "parallel:nthreads=4,schedule=static-rows,chunk_rows=auto"
    )
    assert ParallelConfig(4, "static-rows", 64).signature() != (
        cfg.signature()
    )
    with pytest.raises(ValueError):
        ParallelConfig(0)


def test_oversubscribed_threads_clamp(empty_row_csr, rng):
    """More threads than (non-empty) rows must execute correctly."""
    x = rng.standard_normal(empty_row_csr.ncols)
    ex = ParallelExecutor(empty_row_csr, baseline_kernel(), nthreads=64)
    assert ex.nthreads <= empty_row_csr.nrows
    assert ex.nthreads == ex.partition.nthreads
    # the description names the requested width
    assert ex.describe() == "parallel[t64/balanced-nnz] -> kernel[csr]"
    np.testing.assert_array_equal(ex.apply(x), empty_row_csr.matvec(x))
