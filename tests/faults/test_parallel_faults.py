"""Injected parallel worker faults drive the full supervision ladder.

Every scenario asserts the acceptance contract of the supervised plane:
an injected crash, hang, or poisoned partition during a parallel apply
never returns a partially-written result — the call either succeeds
bit-identically to the serial kernel (after retry/degradation, with the
demotion recorded) or raises a typed ``ParallelExecutionError``.
"""

from __future__ import annotations

import math
import time

import numpy as np
import pytest

from repro.engine import (
    ExecutorSpec,
    SupervisedExecutor,
    SupervisionSpec,
    build_executor,
    clear_demotions,
    demoted_target,
    demotion_count,
    demotion_log,
    record_demotion,
)
from repro.errors import ChunkFailure, ParallelExecutionError
from repro.formats import CSRMatrix
from repro.guard import (
    ParallelFaultKernel,
    kernel_failure_count,
    quarantined_kernel_names,
)
from repro.kernels import BCSRSpMV, SellCSigmaSpMV, baseline_kernel
from repro.parallel import ParallelConfig


@pytest.fixture(autouse=True)
def _clean_demotions():
    """Demotion state is process-global; never leak it across tests."""
    clear_demotions()
    yield
    clear_demotions()


@pytest.fixture
def x(small_random_csr):
    return np.random.default_rng(42).standard_normal(
        small_random_csr.ncols
    )


# -- unsupervised plane: typed errors, no partial results ---------------


def test_worker_crash_raises_typed_error_with_chunk_attribution(
        small_random_csr, x):
    fk = ParallelFaultKernel(baseline_kernel(), mode="crash",
                             fail_applies=1)
    op = build_executor(small_random_csr, ExecutorSpec(
        parallel=ParallelConfig(nthreads=4)), kernel=fk)
    with pytest.raises(ParallelExecutionError) as exc_info:
        op.matvec(x)
    err = exc_info.value
    assert err.kind == "worker-fault"
    assert err.nthreads == 4
    assert err.failures
    failure = err.failures[0]
    assert isinstance(failure, ChunkFailure)
    assert failure.kind == "exception"
    assert 0 <= failure.chunk_index
    assert 0 <= failure.row_lo < failure.row_hi <= small_random_csr.nrows
    assert "injected worker crash" in failure.detail


def test_crash_never_returns_partially_written_out(small_random_csr, x):
    fk = ParallelFaultKernel(baseline_kernel(), mode="crash",
                             fail_applies=1)
    op = build_executor(small_random_csr, ExecutorSpec(
        parallel=ParallelConfig(nthreads=4)), kernel=fk)
    out = np.full(small_random_csr.nrows, 7.0)
    with pytest.raises(ParallelExecutionError):
        op.matvec(x, out=out)
    # The buffer is invalidated wholesale, not left half-computed.
    assert np.isnan(out).all()


def test_plane_deadline_watchdog_times_out_hung_chunk(small_random_csr,
                                                      x):
    fk = ParallelFaultKernel(baseline_kernel(), mode="hang",
                             fail_applies=1, hang_seconds=0.5)
    op = build_executor(small_random_csr, ExecutorSpec(
        parallel=ParallelConfig(nthreads=2)), kernel=fk)
    out = np.full(small_random_csr.nrows, 7.0)
    t0 = time.perf_counter()
    with pytest.raises(ParallelExecutionError) as exc_info:
        op.apply(x, out=out, deadline_seconds=0.05)
    elapsed = time.perf_counter() - t0
    err = exc_info.value
    assert err.kind == "deadline"
    assert any(f.kind == "timeout" for f in err.failures)
    assert np.isnan(out).all()
    # The caller was released by the watchdog, not by the hung worker.
    assert elapsed < 0.5


def test_nan_operand_is_propagation_not_a_fault(small_random_csr, x):
    """A NaN in ``x`` propagates into the CSR reference product too, so
    the non-finite output clears the kernel: no failure, no demotion,
    no ladder move."""
    x = x.copy()
    x[small_random_csr.colind[0]] = np.nan
    kernel = baseline_kernel()
    demotions = demotion_count()
    op = build_executor(small_random_csr, ExecutorSpec(
        guard=True, parallel=ParallelConfig(2),
        supervision=SupervisionSpec()), kernel=kernel)
    y = op.apply(x)
    assert not np.isfinite(y).all()  # the reference check was reached
    assert kernel_failure_count(kernel.name) == 0
    assert demotion_count() == demotions
    assert not op.last_report.degraded
    assert np.array_equal(y, small_random_csr.matvec(x), equal_nan=True)


def test_guarded_overflow_makes_no_ladder_move(small_random_csr):
    """A finite matrix and operand whose product overflows: on a guarded
    supervised stack the guard is the one poison check, and the CSR
    reference overflows alike, so the ladder stays at its first rung,
    records no demotion and the baseline records no failure."""
    x = np.full(small_random_csr.ncols, 1e308)
    kernel = baseline_kernel()
    stack = build_executor(small_random_csr, ExecutorSpec(
        guard=True, parallel=ParallelConfig(2),
        supervision=SupervisionSpec()), kernel=kernel)
    y = stack.apply(x)
    assert not np.isfinite(y).all()
    assert stack.last_report.ladder() == "t2"
    assert demotion_count() == 0
    assert kernel_failure_count(kernel.name) == 0
    assert np.array_equal(y, small_random_csr.matvec(x), equal_nan=True)


def test_unguarded_overflow_makes_no_ladder_move(small_random_csr):
    """The same overflow on an unguarded supervised stack: the serial
    CSR reference overflows alike, so the supervisor's poison check
    sees no fault."""
    x = np.full(small_random_csr.ncols, 1e308)
    stack = build_executor(small_random_csr, ExecutorSpec(
        parallel=ParallelConfig(2), supervision=SupervisionSpec()),
        kernel=baseline_kernel())
    y = stack.apply(x)
    assert not np.isfinite(y).all()
    assert stack.last_report.ladder() == "t2"
    assert demotion_count() == 0
    assert np.array_equal(y, small_random_csr.matvec(x), equal_nan=True)


def test_nan_written_after_build_makes_no_ladder_move(small_random_csr, x):
    """An unguarded supervised stack whose matrix values gain a NaN
    after construction: the NaN row is IEEE propagation, reproduced by
    the serial CSR reference, so the ladder stays at its first rung."""
    csr = CSRMatrix(small_random_csr.rowptr, small_random_csr.colind,
                    small_random_csr.values.copy(), small_random_csr.shape)
    stack = build_executor(csr, ExecutorSpec(
        parallel=ParallelConfig(2), supervision=SupervisionSpec()),
        kernel=baseline_kernel())
    np.testing.assert_array_equal(stack.apply(x), csr.matvec(x))
    csr.values[0] = np.nan
    y = stack.apply(x)
    assert not np.isfinite(y).all()
    assert stack.last_report.ladder() == "t2"
    assert demotion_count() == 0
    assert np.array_equal(y, csr.matvec(x), equal_nan=True)


def _sell_padding_case():
    """Rows of 1-3 nonzeros, none in column 0, so SELL-C-σ pads every
    chunk with (column 0, 0.0) slots; ``x[0]`` is NaN, and the CSR
    product, which never reads it, is finite."""
    n = 64
    lengths = 1 + np.arange(n) % 3
    colind = np.concatenate([
        np.sort(1 + (i + 7 * np.arange(k)) % (n - 1))
        for i, k in enumerate(lengths)
    ])
    rowptr = np.concatenate(([0], np.cumsum(lengths)))
    rng = np.random.default_rng(3)
    csr = CSRMatrix(rowptr, colind, rng.standard_normal(colind.size),
                    (n, n))
    x = rng.standard_normal(n)
    x[0] = np.nan
    return SellCSigmaSpMV(chunk=8), csr, x


def _bcsr_fill_in_case():
    """A diagonal matrix: every 2x2 block stores one fill-in zero per
    row, and ``x[1]``, NaN, sits under row 0's fill-in. The CSR product
    is NaN in row 1 only."""
    n = 64
    csr = CSRMatrix(np.arange(n + 1), np.arange(n),
                    1.0 + np.arange(n), (n, n))
    x = np.random.default_rng(4).standard_normal(n)
    x[1] = np.nan
    return BCSRSpMV(2), csr, x


@pytest.mark.parametrize("case", [_sell_padding_case, _bcsr_fill_in_case],
                         ids=["sell-padding", "bcsr-fill-in"])
@pytest.mark.parametrize("spec", [
    ExecutorSpec(guard=True),
    ExecutorSpec(guard=True, parallel=ParallelConfig(2),
                 supervision=SupervisionSpec()),
    ExecutorSpec(parallel=ParallelConfig(2), supervision=SupervisionSpec()),
], ids=["guarded", "guarded-supervised", "supervised"])
def test_operand_nan_through_padding_is_not_a_fault(case, spec):
    """A padded format spreads an operand NaN through the zeros it
    stores into rows the CSR product keeps finite. That is no kernel
    fault: the stack returns the CSR product with no failure, no
    quarantine, no ladder move and no demotion."""
    kernel, csr, x = case()
    reference = csr.matvec(x)
    spread = kernel.apply(kernel.preprocess(csr), x)
    assert np.count_nonzero(np.isnan(spread)) > np.count_nonzero(
        np.isnan(reference))  # the format does spread the NaN
    stack = build_executor(csr, spec, kernel=kernel)
    y = stack.apply(x)
    assert np.array_equal(y, reference, equal_nan=True)
    assert kernel_failure_count(kernel.name) == 0
    assert quarantined_kernel_names() == ()
    assert demotion_count() == 0
    if spec.supervision is not None:
        assert stack.last_report.ladder() == "t2"


# -- supervised ladder: bit-identical recovery on every rung ------------


def test_crash_retry_recovers_bit_identical(small_random_csr, x):
    ref = small_random_csr.matvec(x)
    fk = ParallelFaultKernel(baseline_kernel(), mode="crash",
                             fail_applies=1)
    sup = SupervisedExecutor(small_random_csr, fk, nthreads=4,
                             backoff_seconds=0.0)
    y = sup.matvec(x)
    np.testing.assert_array_equal(y, ref)
    report = sup.last_report
    assert report.degraded
    assert report.final_mode == "parallel"
    assert report.attempts[0].outcome == "worker-fault"
    assert report.attempts[-1].outcome == "ok"
    assert demotion_count() == 1


@pytest.mark.parametrize("fail_applies", [1, 2, 4])
def test_every_ladder_rung_stays_bit_identical(small_random_csr, x,
                                               fail_applies):
    """Whichever rung the ladder settles on — first retry, lowest
    width, or serial — the result matches the serial kernel exactly."""
    ref = small_random_csr.matvec(x)
    fk = ParallelFaultKernel(baseline_kernel(), mode="crash",
                             fail_applies=fail_applies)
    sup = SupervisedExecutor(small_random_csr, fk, nthreads=4,
                             max_retries=2, backoff_seconds=0.0)
    y = sup.matvec(x)
    np.testing.assert_array_equal(y, ref)
    assert sup.last_report.degraded


def test_persistent_crash_walks_full_ladder_to_serial(small_random_csr,
                                                      x):
    ref = small_random_csr.matvec(x)
    fk = ParallelFaultKernel(baseline_kernel(), mode="crash",
                             fail_applies=math.inf)
    sup = SupervisedExecutor(small_random_csr, fk, nthreads=4,
                             max_retries=2, backoff_seconds=0.0)
    y = sup.matvec(x)
    np.testing.assert_array_equal(y, ref)
    report = sup.last_report
    assert report.final_mode == "serial"
    # Requested width, two reduced retries, then the serial fallback.
    assert [a.mode for a in report.attempts] == (
        ["parallel", "parallel", "parallel", "serial"]
    )
    assert demoted_target(sup.signature) == 0
    (entry,) = demotion_log().values()
    assert entry["reason"] == "worker-fault"


def test_backoff_falls_only_between_parallel_rungs(small_random_csr, x,
                                                  monkeypatch):
    """The ladder pauses before each retry, never before the serial
    fallback; a configuration demoted to serial does not pause at
    all."""
    sleeps = []
    monkeypatch.setattr("repro.engine.supervision.time.sleep",
                        sleeps.append)
    ref = small_random_csr.matvec(x)
    fk = ParallelFaultKernel(baseline_kernel(), mode="crash",
                             fail_applies=math.inf)
    sup = SupervisedExecutor(small_random_csr, fk, nthreads=4,
                             max_retries=2, backoff_seconds=0.01)
    np.testing.assert_array_equal(sup.matvec(x), ref)
    assert sup.last_report.ladder() == (
        "t4!worker-fault -> t2!worker-fault -> t1!worker-fault -> serial"
    )
    assert sleeps == [0.01, 0.02]

    sleeps.clear()
    assert demoted_target(sup.signature) == 0
    np.testing.assert_array_equal(sup.matvec(x), ref)
    assert sup.last_report.ladder() == "serial"
    assert sleeps == []


def test_demoted_config_skips_straight_to_recorded_width(
        small_random_csr, x):
    ref = small_random_csr.matvec(x)
    sup = SupervisedExecutor(small_random_csr, nthreads=4,
                             backoff_seconds=0.0)
    record_demotion(sup.signature, 2, "worker-fault")
    y = sup.matvec(x)
    np.testing.assert_array_equal(y, ref)
    # No re-walk of the failed width: the first attempt is already at
    # the demoted target.
    assert sup.last_report.attempts[0].nthreads == 2
    assert sup.last_report.attempts[0].outcome == "ok"


def test_poisoned_partition_detected_and_recovered(small_random_csr, x):
    ref = small_random_csr.matvec(x)
    fk = ParallelFaultKernel(baseline_kernel(), mode="poison",
                             fail_applies=1)
    sup = SupervisedExecutor(small_random_csr, fk, nthreads=4,
                             backoff_seconds=0.0)
    out = np.empty(small_random_csr.nrows)
    y = sup.matvec(x, out=out)
    assert y is out
    np.testing.assert_array_equal(y, ref)
    first = sup.last_report.attempts[0]
    assert first.outcome == "poisoned"
    assert "non-finite" in first.detail


def test_hang_watchdog_recovers_within_deadline_budget(small_random_csr,
                                                       x):
    """The watchdog smoke: a 0.5 s hang under a 0.1 s budget must
    neither block for the full hang nor corrupt the result."""
    ref = small_random_csr.matvec(x)
    fk = ParallelFaultKernel(baseline_kernel(), mode="hang",
                             fail_applies=1, hang_seconds=0.5)
    sup = SupervisedExecutor(small_random_csr, fk, nthreads=4,
                             deadline_seconds=0.1, backoff_seconds=0.0)
    t0 = time.perf_counter()
    y = sup.matvec(x)
    elapsed = time.perf_counter() - t0
    np.testing.assert_array_equal(y, ref)
    assert sup.last_report.attempts[0].outcome == "deadline"
    assert sup.last_report.final_mode == "serial"
    # Budget exhausted -> serial fallback, well before the hang ends.
    assert elapsed < 0.5


def test_crash_escapes_typed_when_serial_fallback_disabled(
        small_random_csr, x):
    fk = ParallelFaultKernel(baseline_kernel(), mode="crash",
                             fail_applies=math.inf)
    sup = SupervisedExecutor(small_random_csr, fk, nthreads=2,
                             max_retries=0, backoff_seconds=0.0,
                             serial_fallback=False)
    out = np.zeros(small_random_csr.nrows)
    with pytest.raises(ParallelExecutionError) as exc_info:
        sup.matvec(x, out=out)
    assert exc_info.value.kind == "worker-fault"
    assert np.isnan(out).all()


def test_supervised_matmat_recovers_bit_identical(small_random_csr):
    X = np.random.default_rng(11).standard_normal(
        (small_random_csr.ncols, 4)
    )
    ref = small_random_csr.matmat(X)
    fk = ParallelFaultKernel(baseline_kernel(), mode="crash",
                             fail_applies=1)
    sup = SupervisedExecutor(small_random_csr, fk, nthreads=4,
                             backoff_seconds=0.0)
    Y = sup.matmat(X)
    np.testing.assert_array_equal(Y, ref)
    assert sup.last_report.degraded


def test_supervise_span_records_ladder(small_random_csr, x):
    from repro.pipeline import Tracer

    tracer = Tracer()
    fk = ParallelFaultKernel(baseline_kernel(), mode="crash",
                             fail_applies=1)
    sup = SupervisedExecutor(small_random_csr, fk, nthreads=4,
                             backoff_seconds=0.0, tracer=tracer)
    sup.matvec(x)
    (span,) = tracer.find("supervise")
    supervision = span.attributes["supervision"]
    assert supervision["degraded"] is True
    assert supervision["demoted"] is True
    assert "worker-fault" in supervision["ladder"]
    assert supervision["attempts"][-1]["outcome"] == "ok"
