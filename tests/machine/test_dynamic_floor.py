"""Tests for the dynamic-schedule unsplittable-unit floor.

Work stealing equalizes load but cannot split a row; the engine floors
the dynamic makespan at the cost of the largest single work unit —
which is exactly why the pool needs matrix decomposition for huge-row
matrices instead of relying on dynamic scheduling.
"""

import pytest

from repro.kernels import ConfiguredSpMV, SpMVConfig, baseline_kernel
from repro.machine import KNL
from repro.model import AnalyticModel
from repro.sched import balanced_nnz


@pytest.fixture(scope="module")
def huge_row_matrix():
    from repro.matrices.generators import banded, with_dense_rows

    return with_dense_rows(
        banded(60_000, nnz_per_row=4, bandwidth=8, seed=41),
        n_dense=1, dense_nnz=45_000, seed=42,
    )


def test_dynamic_floored_by_largest_row(huge_row_matrix):
    model = AnalyticModel(KNL)
    dyn = ConfiguredSpMV(SpMVConfig(schedule="dynamic"))
    r = model.run(dyn, dyn.preprocess(huge_row_matrix))

    # compute the single-row cost directly from the cost plane
    base = baseline_kernel()
    cost = base.cost(
        base.preprocess(huge_row_matrix), KNL,
        balanced_nnz(huge_row_matrix, 1),
    )
    unit_seconds = max(
        cost.max_unit_cycles * KNL.smt / KNL.freq_hz,
        cost.max_unit_latency_ns * 1e-9 / cost.mlp,
    )
    assert r.seconds >= unit_seconds


def test_decomposition_beats_dynamic_on_huge_rows(huge_row_matrix):
    """The pool design choice the floor encodes."""
    model = AnalyticModel(KNL)
    dyn = ConfiguredSpMV(SpMVConfig(schedule="dynamic"))
    dec = ConfiguredSpMV(SpMVConfig(decompose=True))
    r_dyn = model.run(dyn, dyn.preprocess(huge_row_matrix))
    r_dec = model.run(dec, dec.preprocess(huge_row_matrix))
    assert r_dec.gflops > 2.0 * r_dyn.gflops


def test_dynamic_still_helps_on_moderate_skew(skewed_csr):
    """With no single dominating row, the floor is harmless and dynamic
    still balances better than static row blocks."""
    model = AnalyticModel(KNL, nthreads=32)
    static = ConfiguredSpMV(SpMVConfig(schedule="static-rows"))
    dyn = ConfiguredSpMV(SpMVConfig(schedule="dynamic"))
    r_static = model.run(static, static.preprocess(skewed_csr))
    r_dyn = model.run(dyn, dyn.preprocess(skewed_csr))
    assert r_dyn.imbalance <= r_static.imbalance


def test_max_unit_fields_populated(banded_csr):
    base = baseline_kernel()
    cost = base.cost(base.preprocess(banded_csr), KNL,
                     balanced_nnz(banded_csr, 4))
    assert cost.max_unit_cycles > 0
    # banded matrix: resident x, no exposed latency
    assert cost.max_unit_latency_ns >= 0


def test_decomposed_kernel_has_small_units(huge_row_matrix):
    """After decomposition the largest unit is a short row — that is
    the whole point of the transformation."""
    base = baseline_kernel()
    dec = ConfiguredSpMV(SpMVConfig(decompose=True))
    c_base = base.cost(
        base.preprocess(huge_row_matrix), KNL,
        balanced_nnz(huge_row_matrix, 8),
    )
    data = dec.preprocess(huge_row_matrix)
    c_dec = dec.cost(data, KNL, dec.partition(data, 8))
    assert c_dec.max_unit_cycles < 0.05 * c_base.max_unit_cycles
