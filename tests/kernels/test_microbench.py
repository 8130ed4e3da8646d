"""Unit tests for the bound micro-kernels."""

import numpy as np
import pytest

from repro.kernels import RegularizedColindSpMV, UnitStrideSpMV, baseline_kernel
from repro.machine import KNC
from repro.model import AnalyticModel
from repro.sched import balanced_nnz


def test_regularized_numeric_semantics(empty_row_csr):
    """colind[j] := i  =>  y[i] = rowsum_i * x[i]."""
    x = np.arange(6, dtype=np.float64) + 1.0
    y = RegularizedColindSpMV().apply(empty_row_csr, x)
    rowsums = np.array([0, 1, 0, 2 + 3 + 4, 0, 5 + 6 + 7 + 8 + 9 + 10],
                       dtype=np.float64)
    np.testing.assert_allclose(y, rowsums * x)


def test_unitstride_numeric_semantics(empty_row_csr):
    x = np.full(6, 2.0)
    y = UnitStrideSpMV().apply(empty_row_csr, x)
    assert y[5] == pytest.approx(2.0 * sum(range(5, 11)))


def test_microbenches_validate_x_shape(banded_csr):
    for bench in (RegularizedColindSpMV(), UnitStrideSpMV()):
        with pytest.raises(ValueError):
            bench.apply(banded_csr, np.zeros(3))


def test_regularized_removes_latency(scattered_csr):
    part = balanced_nnz(scattered_csr, 8)
    cost = RegularizedColindSpMV().cost(scattered_csr, KNC, part)
    assert cost.latency_ns.sum() == 0.0


def test_regularized_keeps_index_traffic(scattered_csr):
    part = balanced_nnz(scattered_csr, 8)
    reg = RegularizedColindSpMV().cost(scattered_csr, KNC, part)
    unit = UnitStrideSpMV().cost(scattered_csr, KNC, part)
    # the P_ML bench still loads colind; the P_CMP bench does not
    assert reg.stream_bytes.sum() > unit.stream_bytes.sum()


def test_bounds_dominate_baseline_on_scattered():
    """On a big scattered matrix, removing irregularity must help."""
    from repro.matrices.generators import random_uniform

    csr = random_uniform(120_000, nnz_per_row=20.0, seed=9)
    model = AnalyticModel(KNC)
    base = baseline_kernel()
    p_csr = model.run(base, base.preprocess(csr)).gflops
    p_ml = model.run(RegularizedColindSpMV(), csr).gflops
    p_cmp = model.run(UnitStrideSpMV(), csr).gflops
    assert p_ml > 1.5 * p_csr
    assert p_cmp > p_csr


def test_unitstride_uses_full_working_set(banded_csr):
    part = balanced_nnz(banded_csr, 8)
    cost = UnitStrideSpMV().cost(banded_csr, KNC, part)
    full_ws = banded_csr.total_nbytes() + 8 * (
        banded_csr.nrows + banded_csr.ncols
    )
    assert cost.working_set_bytes == pytest.approx(full_ws)
