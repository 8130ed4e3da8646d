"""The parallel executor: bit-identity, contracts, telemetry.

The headline invariant: a parallel matvec over contiguous row chunks is
*bit-identical* to the serial kernel for every format, schedule policy
and thread count — each row's sum is computed by exactly one chunk from
that row's own nonzeros in stored order, and blocked/sorted formats
(BCSR, SELL-C-sigma) snap chunk boundaries to their regrouping
granularity (``row_align``).
"""

import sys
import threading
from concurrent.futures import Future
from concurrent.futures import wait as futures_wait

import numpy as np
import pytest

import repro.engine.executor as executor_module
from repro.engine import (
    ExecutorSpec,
    GuardedKernel,
    ParallelExecutor,
    SupervisedExecutor,
    build_executor,
)
from repro.errors import ParallelExecutionError
from repro.kernels import (
    ConfiguredSpMV,
    SpMVConfig,
    baseline_kernel,
    merged_pool_kernel,
)
from repro.kernels.bcsr import BCSRSpMV
from repro.kernels.sellcs import SellCSigmaSpMV
from repro.matrices.generators import power_law
from repro.parallel import (
    ParallelConfig,
    active_worker_counts,
    get_executor,
    recycle_executor,
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
    for schedule in ("balanced-nnz", "dynamic"):
        ex = ParallelExecutor(banded_csr, kernel, nthreads=4,
                              schedule=schedule)
        for _ in range(2):  # dynamic assignment may differ run to run
            np.testing.assert_array_equal(ex.apply_multi(X), serial)


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


# -- dispatch: which thread runs which slot -----------------------------


class _ThreadRecorder:
    """Kernel wrapper for the executor's numeric plane: delegates to
    ``inner`` and records the thread that runs each chunk (keyed by the
    chunk's preprocessed data). With ``crash_on`` set, a chunk run on
    that thread raises instead."""

    row_align = 1

    def __init__(self, inner, crash_on: int | None = None):
        self.inner = inner
        self.name = f"rec[{inner.name}]"
        self.crash_on = crash_on
        self.ran: dict[int, int] = {}

    def preprocess(self, csr):
        return self.inner.preprocess(csr)

    def _record(self, data) -> None:
        me = threading.get_ident()
        self.ran[id(data)] = me
        if me == self.crash_on:
            raise RuntimeError("injected crash on the calling thread")

    def apply(self, data, x, out=None, workspace=None):
        self._record(data)
        return self.inner.apply(data, x, out=out, workspace=workspace)

    def threads_of(self, ex: ParallelExecutor) -> list[int]:
        """The thread that ran each chunk of ``ex``, in chunk order."""
        return [self.ran[id(chunk.data)] for chunk in ex.chunks]


class _NeverStarted(Future):
    """A task no pool worker ever picks up. Waiting for its result gives
    up after 5 s, so an executor that waits instead of running the slot
    itself fails rather than hangs."""

    def result(self, timeout=None):
        return super().result(5.0 if timeout is None else timeout)


class _CountingPool:
    """Stands in for a pooled executor and counts what it is handed.
    ``stalled`` pools never start a task, like a pool whose workers
    are all busy."""

    def __init__(self, width: int, stalled: bool = False):
        self.width = width
        self.stalled = stalled
        self.submitted = 0

    def submit(self, fn, *args):
        self.submitted += 1
        if self.stalled:
            return _NeverStarted()
        return get_executor(self.width).submit(fn, *args)


@pytest.fixture
def counting_pool(monkeypatch):
    """Route ``ParallelExecutor``'s pool lookups through counters;
    returns the list of pools handed out (one per lookup)."""
    pools: list[_CountingPool] = []

    def install(stalled: bool = False) -> list[_CountingPool]:
        def lookup(width):
            pools.append(_CountingPool(width, stalled))
            return pools[-1]

        monkeypatch.setattr(executor_module, "get_executor", lookup)
        return pools

    return install


@pytest.mark.parametrize("nthreads", [1, 2, 3, 8])
def test_caller_runs_slot_zero_and_pool_gets_the_rest(
        nthreads, skewed_csr, rng, counting_pool):
    x = rng.standard_normal(skewed_csr.ncols)
    kernel = _ThreadRecorder(baseline_kernel())
    ex = ParallelExecutor(skewed_csr, kernel, nthreads=nthreads)
    assert ex.nthreads == nthreads
    pools = counting_pool()
    caller = threading.get_ident()
    for _ in range(3):
        np.testing.assert_array_equal(ex.apply(x), skewed_csr.matvec(x))
        threads = kernel.threads_of(ex)
        assert all(threads[ci] == caller for ci in ex.thread_chunks[0])
    # One pool of the apply's own width per apply, n - 1 tasks each; a
    # one-thread apply has nothing to hand over and looks up no pool.
    expected = [(nthreads, nthreads - 1)] * 3 if nthreads > 1 else []
    assert [(p.width, p.submitted) for p in pools] == expected


@pytest.mark.parametrize("schedule", ["balanced-nnz", "dynamic"])
def test_slot_the_pool_never_started_runs_on_the_caller(
        schedule, skewed_csr, rng, counting_pool):
    """A stalled pool starts nothing: the caller cancels every submitted
    slot and runs it itself, with the same result and one clock pair
    per slot."""
    x = rng.standard_normal(skewed_csr.ncols)
    kernel = _ThreadRecorder(baseline_kernel())
    ex = ParallelExecutor(skewed_csr, kernel, nthreads=4,
                          schedule=schedule)
    pools = counting_pool(stalled=True)
    np.testing.assert_array_equal(ex.apply(x), skewed_csr.matvec(x))
    assert [p.submitted for p in pools] == [ex.nthreads - 1]
    assert set(kernel.threads_of(ex)) == {threading.get_ident()}
    m = ex.last_measurement
    assert len(m.thread_wall_seconds) == ex.nthreads
    assert sum(m.chunks_per_thread) == len(ex.chunks)


def test_deadline_sends_every_slot_to_the_pool(skewed_csr, rng,
                                               counting_pool):
    x = rng.standard_normal(skewed_csr.ncols)
    kernel = _ThreadRecorder(baseline_kernel())
    ex = ParallelExecutor(skewed_csr, kernel, nthreads=4)
    pools = counting_pool()
    got = ex.apply(x, deadline_seconds=30.0)
    np.testing.assert_array_equal(got, skewed_csr.matvec(x))
    assert [(p.width, p.submitted) for p in pools] == [(4, 4)]
    assert threading.get_ident() not in kernel.threads_of(ex)


def test_crash_on_the_caller_is_attributed_to_slot_zero(skewed_csr, rng):
    x = rng.standard_normal(skewed_csr.ncols)
    crash = _ThreadRecorder(baseline_kernel(),
                            crash_on=threading.get_ident())
    ex = ParallelExecutor(skewed_csr, crash, nthreads=2)
    out = np.zeros(skewed_csr.nrows)
    with pytest.raises(ParallelExecutionError) as info:
        ex.apply(x, out=out)
    assert info.value.kind == "worker-fault"
    assert [f.thread_slot for f in info.value.failures] == [0]
    assert np.isnan(out).all()

    sup = SupervisedExecutor(skewed_csr, crash, nthreads=2,
                             backoff_seconds=0.0)
    np.testing.assert_array_equal(sup.apply(x), skewed_csr.matvec(x))
    assert sup.last_report.final_mode == "serial"


def test_busy_pool_apply_does_not_deadlock(rng):
    """Both workers of the width-2 pool run a 2-thread apply: neither
    apply's slot 1 can start on the pool, so each caller runs it
    itself instead of waiting for a free worker."""
    csr = power_law(4000, avg_deg=12, seed=5)
    ex = ParallelExecutor(csr, baseline_kernel(), nthreads=2)
    assert ex.nthreads == 2
    x = rng.standard_normal(csr.ncols)
    both_running = threading.Barrier(2)

    def outer():
        both_running.wait(timeout=5.0)
        return ex.apply(x)

    pool = get_executor(2)
    futures = [pool.submit(outer) for _ in range(2)]
    _, not_done = futures_wait(futures, timeout=5.0)
    if not_done:
        # Release the blocked workers before failing (the pool's exit
        # hook joins them): retiring the pool cancels the inner tasks
        # that never started, which ends both outer applies.
        recycle_executor(2)
        futures_wait(futures, timeout=5.0)
        pytest.fail("a 2-thread apply inside the busy width-2 pool "
                    "did not return within 5 s")
    for future in futures:
        np.testing.assert_array_equal(future.result(), csr.matvec(x))


def test_concurrent_callers_share_one_pool(skewed_csr, rng):
    """More callers than cores drive one 3-thread executor at once, with
    a short switch interval: slots are now started by the pool, now run
    by a caller that cancelled them, and every result stays bitwise
    serial."""
    ex = ParallelExecutor(skewed_csr, baseline_kernel(), nthreads=3)
    X = rng.standard_normal((4, skewed_csr.ncols))
    expected = [skewed_csr.matvec(x) for x in X]
    mismatches = []

    def caller(i: int) -> None:
        for _ in range(25):
            if not np.array_equal(ex.apply(X[i]), expected[i]):
                mismatches.append(i)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=caller, args=(i,), daemon=True)
                   for i in range(len(X))]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30.0)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert mismatches == []
