"""Unit tests for the per-class performance bounds."""

import numpy as np
import pytest

from repro.formats import CSRMatrix
from repro.machine import KNC, KNL
from repro.model import AnalyticModel, profiling_seconds


def test_bounds_all_positive(banded_csr, platform):
    b = AnalyticModel(platform).bounds(banded_csr)
    for v in b.as_dict().values():
        assert v > 0


def test_peak_dominates_mb(banded_csr, platform):
    """P_peak assumes indexing is free; it must upper-bound P_MB."""
    b = AnalyticModel(platform).bounds(banded_csr)
    assert b.p_peak > b.p_mb


def test_imb_bound_at_least_baseline(skewed_csr, banded_csr, platform):
    """Median thread time <= makespan, so P_IMB >= P_CSR."""
    for m in (skewed_csr, banded_csr):
        b = AnalyticModel(platform).bounds(m)
        assert b.p_imb >= b.p_csr * 0.999


def test_imb_gap_large_for_skewed_small_for_regular():
    b_skew = AnalyticModel(KNC).bounds(_big_skewed())
    from repro.matrices.generators import banded

    b_reg = AnalyticModel(KNC).bounds(banded(50_000, nnz_per_row=16, seed=3))
    assert b_skew.p_imb / b_skew.p_csr > 2.0
    assert b_reg.p_imb / b_reg.p_csr < 1.1


def _big_skewed():
    from repro.matrices.generators import banded, with_dense_rows

    return with_dense_rows(
        banded(50_000, nnz_per_row=4, bandwidth=8, seed=1),
        n_dense=2, dense_nnz=30_000, seed=2,
    )


def test_ml_gap_large_for_scattered_on_knc():
    from repro.matrices.generators import banded, random_uniform

    scattered = random_uniform(120_000, nnz_per_row=16.0, seed=4)
    regular = banded(120_000, nnz_per_row=16, seed=5)
    b_s = AnalyticModel(KNC).bounds(scattered)
    b_r = AnalyticModel(KNC).bounds(regular)
    assert b_s.p_ml / b_s.p_csr > 1.5
    assert b_r.p_ml / b_r.p_csr < 1.3


def test_empty_matrix_rejected():
    csr = CSRMatrix([0, 0], np.zeros(0, np.int32), np.zeros(0), (1, 1))
    with pytest.raises(ValueError):
        AnalyticModel(KNC).bounds(csr)


def test_profiling_seconds_accounting(banded_csr):
    b = AnalyticModel(KNL).bounds(banded_csr)
    t = profiling_seconds(b, banded_csr, iterations=64)
    # 64 iterations of three kernels, each at least as fast as baseline
    t_base = 2.0 * banded_csr.nnz / (b.p_csr * 1e9)
    assert t >= 64 * t_base  # baseline alone
    assert t <= 64 * 3 * t_base * 1.01


def test_bounds_str(banded_csr):
    text = str(AnalyticModel(KNC).bounds(banded_csr))
    assert "P_CSR" in text and "knc" in text


def test_bounds_build_one_partition(monkeypatch, skewed_csr):
    """The baseline, P_ML and P_CMP runs share one balanced-nnz
    partition, and each bound equals its run on its own partition."""
    from repro.kernels import RegularizedColindSpMV, UnitStrideSpMV
    from repro.sched import policies

    model = AnalyticModel(KNL)
    p_ml = model.run(RegularizedColindSpMV(), skewed_csr).gflops
    p_cmp = model.run(UnitStrideSpMV(), skewed_csr).gflops
    built = []
    balanced_nnz = policies.SCHEDULE_POLICIES["balanced-nnz"]

    def counting(csr, nthreads):
        built.append(nthreads)
        return balanced_nnz(csr, nthreads)

    monkeypatch.setitem(policies.SCHEDULE_POLICIES, "balanced-nnz",
                        counting)
    b = model.bounds(skewed_csr)
    assert built == [KNL.total_threads]
    assert (b.p_ml, b.p_cmp) == (p_ml, p_cmp)
