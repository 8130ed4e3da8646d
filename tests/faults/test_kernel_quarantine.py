"""Guarded kernel execution: faults quarantine the variant and fall
back to the reference CSR numeric plane bit-identically."""

import numpy as np
import pytest

from repro.core import AdaptiveSpMV
from repro.engine import ExecutorSpec, SupervisionSpec, build_executor
from repro.formats import CSRMatrix
from repro.guard import (
    BrokenKernel,
    GuardedKernel,
    clear_quarantine,
    inject_value_fault,
    is_quarantined,
    kernel_failure_count,
    kernel_failure_log,
    quarantined_kernel_names,
    record_kernel_failure,
)
from repro.kernels import baseline_kernel, merged_pool_kernel, pool_kernel
from repro.machine import KNL
from repro.matrices.generators import random_uniform
from repro.parallel import ParallelConfig


@pytest.fixture
def x(small_random_csr, rng):
    return rng.standard_normal(small_random_csr.ncols)


@pytest.mark.parametrize("mode", ["raise", "nan", "shape"])
def test_faulting_kernel_falls_back_bit_identically(small_random_csr, x,
                                                    mode):
    broken = BrokenKernel(baseline_kernel(), mode=mode)
    guarded = GuardedKernel(broken)
    data = guarded.preprocess(small_random_csr)
    y = guarded.apply(data, x)
    np.testing.assert_array_equal(y, small_random_csr.matvec(x))
    assert kernel_failure_count(broken.name) == 1
    assert is_quarantined(broken.name)
    assert broken.name in quarantined_kernel_names()

    # Same fault through a caller-owned buffer: the fallback lands in
    # ``out`` itself, overwriting whatever the variant left there.
    clear_quarantine(broken.name)
    out = np.full(small_random_csr.nrows, 7.0)
    y = guarded.apply(data, x, out=out)
    assert y is out
    np.testing.assert_array_equal(out, small_random_csr.matvec(x))
    assert kernel_failure_count(broken.name) == 1


@pytest.mark.parametrize("nthreads", [None, 2], ids=["serial", "t2"])
def test_wrong_shape_operand_never_quarantines(small_random_csr,
                                               nthreads):
    """A caller's wrong-shape ``x``/``X`` raises ``ValueError`` before
    the guarded variant runs, so it is not counted against the variant
    (the parallel executor's own shape check runs first)."""
    kernel = merged_pool_kernel(("unrolling",))
    parallel = None if nthreads is None else ParallelConfig(nthreads)
    stack = build_executor(small_random_csr,
                           ExecutorSpec(guard=True, parallel=parallel),
                           kernel=kernel)
    n = small_random_csr.ncols
    with pytest.raises(ValueError, match="x must have shape"):
        stack.apply(np.ones(n + 1))
    with pytest.raises(ValueError, match="X must have shape"):
        stack.apply_multi(np.ones((n + 1, 2)))
    assert kernel_failure_count(kernel.name) == 0


def test_failure_log_records_reasons(small_random_csr, x):
    broken = BrokenKernel(baseline_kernel(), mode="shape")
    guarded = GuardedKernel(broken)
    guarded.apply(guarded.preprocess(small_random_csr), x)
    (reason,) = kernel_failure_log(broken.name)
    assert "shape" in reason


def test_quarantined_variant_is_not_called_again(small_random_csr, x):
    broken = BrokenKernel(baseline_kernel(), mode="raise")
    guarded = GuardedKernel(broken)
    data = guarded.preprocess(small_random_csr)
    guarded.apply(data, x)
    calls_after_fault = broken.calls
    guarded.apply(data, x)
    guarded.apply(data, x)
    assert broken.calls == calls_after_fault  # quarantine short-circuits
    assert kernel_failure_count(broken.name) == 1


def test_multi_rhs_fallback_matches_matmat(small_random_csr, rng):
    X = rng.standard_normal((small_random_csr.ncols, 4))
    broken = BrokenKernel(baseline_kernel(), mode="nan")
    guarded = GuardedKernel(broken)
    data = guarded.preprocess(small_random_csr)
    Y = guarded.apply_multi(data, X)
    np.testing.assert_array_equal(Y, small_random_csr.matmat(X))


def test_intermittent_fault_quarantines_on_first_failure(
        small_random_csr, x):
    broken = BrokenKernel(baseline_kernel(), mode="raise", fail_after=2)
    guarded = GuardedKernel(broken)
    data = guarded.preprocess(small_random_csr)
    ref = small_random_csr.matvec(x)
    for _ in range(4):  # healthy, healthy, fault, fallback
        np.testing.assert_allclose(guarded.apply(data, x), ref, rtol=1e-12)
    assert is_quarantined(broken.name)


def test_preprocess_failure_quarantines(small_random_csr, x):
    class ExplodingPreprocess(BrokenKernel):
        def preprocess(self, csr):
            raise RuntimeError("injected preprocess fault")

    broken = ExplodingPreprocess(baseline_kernel())
    guarded = GuardedKernel(broken)
    data = guarded.preprocess(small_random_csr)
    assert data.inner is None
    np.testing.assert_array_equal(
        guarded.apply(data, x), small_random_csr.matvec(x)
    )
    assert kernel_failure_count(broken.name) == 1


def test_nan_matrix_does_not_quarantine_healthy_kernel(
        small_random_csr, x):
    poisoned = inject_value_fault(small_random_csr, "nan")
    kernel = baseline_kernel()
    guarded = GuardedKernel(kernel)
    data = guarded.preprocess(poisoned)
    y = guarded.apply(data, x)
    # NaN output is IEEE propagation from a NaN matrix, not a kernel bug
    assert not np.isfinite(y).all()
    assert kernel_failure_count(kernel.name) == 0
    assert not is_quarantined(kernel.name)


def test_nan_operand_returns_the_csr_product_unrecorded(
        small_random_csr, x):
    """A variant NaN in row 0 under an operand NaN that row 0 never
    reads: with a non-finite operand a padded format spreads NaN into
    such rows too, so the guard records nothing and returns the CSR
    product, finite in row 0."""
    untouched = np.setdiff1d(np.arange(small_random_csr.ncols),
                             small_random_csr.row_slice(0)[0])
    x = x.copy()
    x[untouched[0]] = np.nan
    broken = BrokenKernel(baseline_kernel(), mode="nan")
    guarded = GuardedKernel(broken)
    y = guarded.apply(guarded.preprocess(small_random_csr), x)
    assert np.array_equal(y, small_random_csr.matvec(x), equal_nan=True)
    assert np.isfinite(y[0])
    assert kernel_failure_count(broken.name) == 0


def test_non_finite_fault_costs_one_csr_product(small_random_csr, x,
                                                monkeypatch):
    """On a rule-3 fault the CSR product that judged the output is also
    the fallback result, written into ``out``: one product, not two."""
    calls = []
    matvec = CSRMatrix.matvec

    def counting(self, *args, **kwargs):
        calls.append(1)
        return matvec(self, *args, **kwargs)

    monkeypatch.setattr(CSRMatrix, "matvec", counting)
    healthy = GuardedKernel(baseline_kernel())
    healthy.apply(healthy.preprocess(small_random_csr), x)
    variant_calls = len(calls)
    broken = BrokenKernel(baseline_kernel(), mode="nan")
    guarded = GuardedKernel(broken)
    out = np.empty(small_random_csr.nrows)
    y = guarded.apply(guarded.preprocess(small_random_csr), x, out=out)
    assert len(calls) == 2 * variant_calls + 1
    assert y is out
    np.testing.assert_array_equal(y, matvec(small_random_csr, x))
    assert kernel_failure_count(broken.name) == 1


def test_overflow_is_not_a_kernel_fault():
    """A finite matrix and operand whose product overflows: the CSR
    reference overflows alike, so the guard returns the overflowed
    ``y``, records nothing and quarantines nothing."""
    csr = random_uniform(3000, 8, seed=1)
    other = random_uniform(2000, 8, seed=3)
    plan_before = AdaptiveSpMV(KNL).optimize(other).plan.kernel_name
    x = np.full(3000, 1e308)
    stack = build_executor(csr, ExecutorSpec(
        guard=True, parallel=ParallelConfig(2),
        supervision=SupervisionSpec()), kernel=baseline_kernel())
    y = stack.apply(x)
    assert not np.isfinite(y).all()
    assert np.array_equal(y, csr.matvec(x), equal_nan=True)
    assert kernel_failure_count(baseline_kernel().name) == 0
    assert quarantined_kernel_names() == ()
    assert stack.last_report.ladder() == "t2"
    assert AdaptiveSpMV(KNL).optimize(other).plan.kernel_name == plan_before


def test_nan_written_after_build_is_not_a_kernel_fault():
    """A NaN put into the matrix values after the guarded stack was
    built propagates into the CSR reference too: no failure, no
    quarantine, and the next plan of another matrix is unchanged."""
    csr = random_uniform(2000, 8, seed=3)
    other = random_uniform(3000, 8, seed=1)
    plan_before = AdaptiveSpMV(KNL).optimize(other).plan.kernel_name
    op = AdaptiveSpMV(KNL, spec=ExecutorSpec(guard=True)).optimize(csr)
    x = np.random.default_rng(5).standard_normal(csr.ncols)
    np.testing.assert_allclose(op.matvec(x), csr.matvec(x), rtol=1e-12)
    csr.values[0] = np.nan
    y = op.matvec(x)
    assert np.isnan(y[0]) and np.isfinite(y[1:]).all()
    assert np.array_equal(y, csr.matvec(x), equal_nan=True)
    assert kernel_failure_count(op.plan.kernel_name) == 0
    assert quarantined_kernel_names() == ()
    assert AdaptiveSpMV(KNL).optimize(other).plan.kernel_name == plan_before


def test_guarded_kernel_is_name_transparent():
    inner = pool_kernel("unrolling")
    guarded = GuardedKernel(inner)
    assert guarded.name == inner.name
    assert guarded.optimizations == inner.optimizations
    # wrapping twice does not nest
    assert GuardedKernel(guarded).inner is inner


def test_clear_quarantine_resets(small_random_csr, x):
    record_kernel_failure("some-variant", "forced")
    assert is_quarantined("some-variant")
    clear_quarantine("some-variant")
    assert not is_quarantined("some-variant")
    assert kernel_failure_count("some-variant") == 0


# -- optimizer integration --------------------------------------------


def test_optimizer_skips_quarantined_variant(small_random_csr, x):
    opt = AdaptiveSpMV(KNL, classifier="profile")
    first = opt.optimize(small_random_csr)
    assert first.plan.optimizations  # fixture matrix gets optimized
    assert first.plan.quarantined == ()

    record_kernel_failure(first.plan.kernel_name, "forced")
    second = opt.optimize(small_random_csr)
    assert second.plan.kernel_name == baseline_kernel().name
    assert second.plan.quarantined == (first.plan.kernel_name,)
    np.testing.assert_array_equal(
        second.matvec(x), small_random_csr.matvec(x)
    )


def test_optimizer_invalidates_stale_cache_entry(small_random_csr):
    opt = AdaptiveSpMV(KNL, classifier="profile")
    first = opt.optimize(small_random_csr)
    assert opt.plan_cache.invalidations == 0
    record_kernel_failure(first.plan.kernel_name, "forced")
    second = opt.optimize(small_random_csr)
    assert not second.plan.cache_hit  # stale entry dropped, replanned
    assert opt.plan_cache.invalidations == 1
    # the fresh (baseline) entry is served normally afterwards
    third = opt.optimize(small_random_csr)
    assert third.plan.cache_hit


def test_optimizer_guard_mode_survives_broken_registry_kernel(
        small_random_csr, x):
    opt = AdaptiveSpMV(KNL, classifier="profile",
                       spec=ExecutorSpec(guard=True))
    op = opt.optimize(small_random_csr)
    guarded = op.executor().kernel
    assert isinstance(guarded, GuardedKernel)
    ref = small_random_csr.matvec(x)
    np.testing.assert_allclose(op.matvec(x), ref, rtol=1e-12)

    # sabotage the wrapped variant's numeric plane in place
    guarded.inner = BrokenKernel(
        guarded.inner, mode="raise", name=guarded.name
    )
    np.testing.assert_array_equal(op.matvec(x), ref)
    assert is_quarantined(op.plan.kernel_name)
