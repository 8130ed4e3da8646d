"""Unit tests for the configurable SpMV kernel variants."""

import itertools

import numpy as np
import pytest

from repro.formats import DecomposedCSR, DeltaCSR
from repro.kernels import ConfiguredSpMV, SpMVConfig, baseline_kernel
from repro.machine import KNC
from repro.model import AnalyticModel


ALL_FLAG_COMBOS = [
    dict(zip(("vectorize", "unroll", "prefetch", "compress", "decompose"),
             bits))
    for bits in itertools.product((False, True), repeat=5)
]


@pytest.mark.parametrize("flags", ALL_FLAG_COMBOS)
def test_every_variant_is_numerically_exact(flags, small_random_csr, x300):
    """All 32 flag combinations must compute the same y = A @ x."""
    kernel = ConfiguredSpMV(SpMVConfig(**flags))
    y = kernel.run_numeric(small_random_csr, x300)
    np.testing.assert_allclose(
        y, small_random_csr.matvec(x300), rtol=1e-12, atol=1e-12
    )


@pytest.mark.parametrize("schedule", ["static-rows", "balanced-nnz",
                                      "auto", "dynamic"])
def test_schedules_do_not_change_numerics(schedule, small_random_csr, x300):
    kernel = ConfiguredSpMV(SpMVConfig(schedule=schedule))
    y = kernel.run_numeric(small_random_csr, x300)
    np.testing.assert_allclose(y, small_random_csr.matvec(x300), rtol=1e-12)


def test_every_variant_costs_and_runs(skewed_csr):
    model = AnalyticModel(KNC, nthreads=32)
    for flags in ALL_FLAG_COMBOS:
        kernel = ConfiguredSpMV(SpMVConfig(**flags))
        r = model.run(kernel, kernel.preprocess(skewed_csr))
        assert r.gflops > 0, flags
        assert np.isfinite(r.seconds)


def test_label_generation():
    assert SpMVConfig().label == "csr"
    assert SpMVConfig(vectorize=True, prefetch=True).label == "csr+vec+pf"
    assert SpMVConfig(compress=True).label == "csr+delta"
    assert SpMVConfig(schedule="auto").label == "csr+auto"


def test_optimization_tags():
    cfg = SpMVConfig(compress=True, vectorize=True, schedule="auto")
    assert set(cfg.optimization_tags) == {
        "compression", "vectorization", "auto-scheduling"
    }


def test_merged_with_unions_flags():
    a = SpMVConfig(compress=True, vectorize=True)
    b = SpMVConfig(prefetch=True, schedule="auto")
    m = a.merged_with(b)
    assert m.compress and m.vectorize and m.prefetch
    assert m.schedule == "auto"


def test_merged_with_keeps_explicit_params():
    a = SpMVConfig(compress=True, delta_width=16)
    m = a.merged_with(SpMVConfig(decompose=True))
    assert m.delta_width == 16 and m.decompose


def test_config_validation():
    with pytest.raises(ValueError):
        SpMVConfig(schedule="guided")
    with pytest.raises(ValueError):
        SpMVConfig(delta_width=12)


def test_preprocess_builds_right_formats(small_random_csr):
    k = ConfiguredSpMV(SpMVConfig(compress=True))
    data = k.preprocess(small_random_csr)
    assert data.delta is not None and data.decomposed is None

    k = ConfiguredSpMV(SpMVConfig(decompose=True, decompose_threshold=10))
    data = k.preprocess(small_random_csr)
    assert data.decomposed is not None and data.delta is None

    k = ConfiguredSpMV(
        SpMVConfig(compress=True, decompose=True, decompose_threshold=10)
    )
    data = k.preprocess(small_random_csr)
    assert data.decomposed is not None and data.short_delta is not None


@pytest.mark.parametrize("compress,decompose",
                         list(itertools.product((False, True), repeat=2)))
def test_apply_runs_callers_csr_without_converting(compress, decompose,
                                                   skewed_csr, rng,
                                                   monkeypatch):
    """Every configuration executes the caller's CSR: preprocess and
    both applies succeed with the format conversions disabled, and
    equal scipy bitwise, even where the threshold splits rows."""
    assert DecomposedCSR.from_csr(skewed_csr, threshold=50).n_long_rows

    def refuse(*args, **kwargs):
        raise AssertionError("format conversion on the execution path")

    monkeypatch.setattr(DeltaCSR, "from_csr", refuse)
    monkeypatch.setattr(DecomposedCSR, "from_csr", refuse)
    kernel = ConfiguredSpMV(SpMVConfig(compress=compress,
                                       decompose=decompose,
                                       decompose_threshold=50))
    data = kernel.preprocess(skewed_csr)
    S = skewed_csr.to_scipy()
    x = rng.standard_normal(skewed_csr.ncols)
    X = rng.standard_normal((skewed_csr.ncols, 3))
    np.testing.assert_array_equal(kernel.apply(data, x), S @ x)
    np.testing.assert_array_equal(kernel.apply_multi(data, X), S @ X)


def test_preprocessing_seconds_ordering(small_random_csr):
    base = baseline_kernel()
    compressed = ConfiguredSpMV(SpMVConfig(compress=True))
    both = ConfiguredSpMV(SpMVConfig(compress=True, decompose=True))
    t0 = base.preprocessing_seconds(small_random_csr, KNC)
    t1 = compressed.preprocessing_seconds(small_random_csr, KNC)
    t2 = both.preprocessing_seconds(small_random_csr, KNC)
    assert t0 == 0.0
    assert 0 < t1 < t2


def test_baseline_kernel_is_plain_csr():
    k = baseline_kernel()
    assert k.name == "csr"
    assert k.config == SpMVConfig()
    assert k.schedule == "balanced-nnz"


def test_cost_mlp_reflects_prefetch(banded_csr):
    from repro.sched import balanced_nnz

    part = balanced_nnz(banded_csr, 8)
    plain = baseline_kernel()
    pf = ConfiguredSpMV(SpMVConfig(prefetch=True))
    c0 = plain.cost(plain.preprocess(banded_csr), KNC, part)
    c1 = pf.cost(pf.preprocess(banded_csr), KNC, part)
    assert c1.mlp > c0.mlp


def test_compress_reduces_stream_bytes(banded_csr):
    from repro.sched import balanced_nnz

    part = balanced_nnz(banded_csr, 8)
    plain = baseline_kernel()
    comp = ConfiguredSpMV(SpMVConfig(compress=True))
    b0 = plain.cost(plain.preprocess(banded_csr), KNC, part).stream_bytes.sum()
    b1 = comp.cost(comp.preprocess(banded_csr), KNC, part).stream_bytes.sum()
    assert b1 < b0


def test_decompose_rebalances_thread_cycles(skewed_csr):
    from repro.sched import balanced_nnz

    plain = baseline_kernel()
    split = ConfiguredSpMV(SpMVConfig(decompose=True, decompose_threshold=50))
    d0 = plain.preprocess(skewed_csr)
    d1 = split.preprocess(skewed_csr)
    p0 = plain.partition(d0, 16)
    p1 = split.partition(d1, 16)
    c0 = plain.cost(d0, KNC, p0)
    c1 = split.cost(d1, KNC, p1)
    imb0 = c0.compute_cycles.max() / max(c0.compute_cycles.mean(), 1e-12)
    imb1 = c1.compute_cycles.max() / max(c1.compute_cycles.mean(), 1e-12)
    assert imb1 < imb0


def test_flops_invariant_across_variants(skewed_csr):
    from repro.sched import balanced_nnz

    expected = 2.0 * skewed_csr.nnz
    for flags in ({}, {"compress": True}, {"decompose": True},
                  {"compress": True, "decompose": True}):
        kernel = ConfiguredSpMV(SpMVConfig(**flags))
        data = kernel.preprocess(skewed_csr)
        cost = kernel.cost(data, KNC, kernel.partition(data, 8))
        assert cost.flops == pytest.approx(expected)
