"""Unit tests for the shared per-row cost model.

``reference_spmv_cost`` below is :func:`spmv_cost` as it stood when it
summed per-row float arrays onto threads, kept operation for operation.
The agreement grid requires the per-thread totals from exact row
moments to match it within ``rtol=1e-12`` and every scalar field,
including the largest-row costs, to equal it.
"""

from dataclasses import replace
from itertools import product

import numpy as np
import pytest
import scipy.sparse as sp

from repro.formats import CSRMatrix
from repro.kernels import (
    ConfiguredSpMV,
    RegularizedColindSpMV,
    SpMVConfig,
    UnitStrideSpMV,
    microbench,
    variants,
)
from repro.kernels.costmodel import (
    _ROWPTR_BYTES_PER_ROW,
    row_compute_cycles,
    row_stream_bytes,
    spmv_cost,
)
from repro.machine import BROADWELL, KNC, KNL, KernelCost
from repro.machine.cache import x_access_cost
from repro.matrices import generators as gen
from repro.sched import balanced_nnz


def reference_spmv_cost(csr_structure, machine, partition, *,
                        vectorize=False, unroll=False, prefetch=False,
                        decode=False, index_bytes_per_nnz=4.0,
                        extra_index_bytes_per_row=0.0, x_mode="gather",
                        flops=None, working_set_bytes=None,
                        extra_seconds=None):
    """The per-row-array ``spmv_cost``, exactly as it computed."""
    partition.validate_covers(csr_structure.nrows)
    row_nnz = csr_structure.row_nnz()

    cycles = row_compute_cycles(
        row_nnz, machine,
        vectorize=vectorize, unroll=unroll, prefetch=prefetch,
        decode=decode, x_mode=x_mode,
    )

    if x_mode == "gather":
        xc = x_access_cost(csr_structure, machine,
                           software_prefetch=prefetch)
        latency_per_row = xc.latency_ns_per_row
        x_bytes = xc.dram_bytes_per_row
    else:
        latency_per_row = np.zeros(csr_structure.nrows)
        x_bytes = None

    bytes_per_row = row_stream_bytes(
        row_nnz,
        index_bytes_per_nnz=index_bytes_per_nnz,
        extra_index_bytes_per_row=extra_index_bytes_per_row,
        x_dram_bytes=x_bytes,
        x_mode=x_mode,
    )

    if flops is None:
        flops = 2.0 * csr_structure.nnz
    if working_set_bytes is None:
        a_bytes = float(
            row_nnz.sum() * (8.0 + index_bytes_per_nnz)
            + csr_structure.nrows
            * (_ROWPTR_BYTES_PER_ROW + extra_index_bytes_per_row)
        )
        working_set_bytes = a_bytes + 8.0 * (
            csr_structure.nrows + csr_structure.ncols
        )

    return KernelCost(
        compute_cycles=partition.thread_sums(cycles),
        stream_bytes=partition.thread_sums(bytes_per_row),
        latency_ns=partition.thread_sums(latency_per_row),
        mlp=machine.mlp_prefetch if prefetch else machine.mlp,
        flops=float(flops),
        working_set_bytes=float(working_set_bytes),
        extra_seconds=extra_seconds,
        max_unit_cycles=float(cycles.max(initial=0.0)),
        max_unit_latency_ns=float(latency_per_row.max(initial=0.0)),
    )


def test_scalar_cycles_linear_in_nnz():
    nnz = np.array([0, 1, 10, 100])
    c = row_compute_cycles(nnz, KNC)
    assert c[0] == KNC.row_overhead_cycles        # empty rows pay bookkeeping
    # marginal cost per nnz equals the scalar rate
    assert (c[3] - c[2]) / 90 == pytest.approx(KNC.scalar_cycles_per_nnz)


def test_vectorized_long_rows_cheaper_than_scalar():
    nnz = np.array([400])
    scalar = row_compute_cycles(nnz, KNC)
    vector = row_compute_cycles(nnz, KNC, vectorize=True)
    assert vector[0] < scalar[0]


def test_vectorized_short_rows_can_lose():
    nnz = np.array([2])
    scalar = row_compute_cycles(nnz, KNC)
    vector = row_compute_cycles(nnz, KNC, vectorize=True)
    # one masked SIMD iteration + higher overhead vs 2 scalar elements
    assert vector[0] > scalar[0] * 0.8  # never dramatically cheaper


def test_vector_tail_quantization():
    # 9 nnz needs 2 SIMD iterations of 8; 16 nnz also needs 2
    c9 = row_compute_cycles(np.array([9]), KNC, vectorize=True)
    c16 = row_compute_cycles(np.array([16]), KNC, vectorize=True)
    assert c9[0] == pytest.approx(c16[0])


def test_unroll_only_helps_long_vector_rows():
    short = np.array([8])
    long = np.array([640])
    v = row_compute_cycles(long, KNC, vectorize=True)
    vu = row_compute_cycles(long, KNC, vectorize=True, unroll=True)
    assert vu[0] < v[0]
    vs = row_compute_cycles(short, KNC, vectorize=True)
    vus = row_compute_cycles(short, KNC, vectorize=True, unroll=True)
    assert vus[0] == pytest.approx(vs[0])


def test_prefetch_and_decode_add_linear_overhead():
    nnz = np.array([100])
    base = row_compute_cycles(nnz, KNC)
    pf = row_compute_cycles(nnz, KNC, prefetch=True)
    dec = row_compute_cycles(nnz, KNC, decode=True)
    assert pf[0] == pytest.approx(base[0] + 100 * KNC.prefetch_issue_cycles)
    assert dec[0] == pytest.approx(base[0] + 100 * KNC.decode_cycles_per_nnz)


def test_regular_x_modes_cheaper_than_gather():
    nnz = np.array([64])
    gather = row_compute_cycles(nnz, KNC, vectorize=True, x_mode="gather")
    unit = row_compute_cycles(nnz, KNC, vectorize=True, x_mode="unit")
    assert unit[0] < gather[0]


def test_x_mode_validation():
    with pytest.raises(ValueError):
        row_compute_cycles(np.array([1]), KNC, x_mode="banana")


def test_stream_bytes_accounting():
    nnz = np.array([10])
    b = row_stream_bytes(nnz, index_bytes_per_nnz=4.0, x_mode="sequential")
    # 10 * (8 + 4) + rowptr 8 + y 16 + x 8
    assert b[0] == pytest.approx(10 * 12 + 8 + 16 + 8)


def test_stream_bytes_compressed_index():
    nnz = np.array([10])
    full = row_stream_bytes(nnz, index_bytes_per_nnz=4.0, x_mode="unit")
    delta = row_stream_bytes(nnz, index_bytes_per_nnz=1.0, x_mode="unit")
    assert full[0] - delta[0] == pytest.approx(30.0)


def test_spmv_cost_thread_aggregation(banded_csr):
    part = balanced_nnz(banded_csr, 4)
    cost = spmv_cost(banded_csr, KNC, part)
    assert cost.compute_cycles.shape == (4,)
    # all rows accounted for: totals match an 1-thread partition
    part1 = balanced_nnz(banded_csr, 1)
    cost1 = spmv_cost(banded_csr, KNC, part1)
    assert cost.compute_cycles.sum() == pytest.approx(
        cost1.compute_cycles.sum()
    )
    assert cost.stream_bytes.sum() == pytest.approx(cost1.stream_bytes.sum())


def test_spmv_cost_partition_shape_mismatch(banded_csr, skewed_csr):
    part = balanced_nnz(skewed_csr, 4)
    with pytest.raises(ValueError):
        spmv_cost(banded_csr, KNC, part)


def test_working_set_override(banded_csr):
    part = balanced_nnz(banded_csr, 4)
    cost = spmv_cost(banded_csr, KNC, part, working_set_bytes=123.0)
    assert cost.working_set_bytes == 123.0


def test_platform_sensitivity(banded_csr):
    """Same matrix, same kernel: the weaker scalar core must need more
    cycles per nonzero."""
    part = balanced_nnz(banded_csr, 4)
    knc = spmv_cost(banded_csr, KNC, part).compute_cycles.sum()
    bdw = spmv_cost(banded_csr, BROADWELL, part).compute_cycles.sum()
    assert knc > 2 * bdw


# -- agreement with the per-row reference ---------------------------------

SCHEDULES = ("static-rows", "balanced-nnz", "auto", "dynamic")
MACHINES = {
    "knc": KNC,
    "knl": KNL,
    "broadwell": BROADWELL,
    # x of a 600-column matrix fits every real platform's caches, which
    # zeroes the exposed latency and the x DRAM traffic. Here it spills
    # both cache levels, and an empty row's scalar overhead exceeds a
    # short vectorized row's cost, so those terms and maxima move too.
    "knc-tiny-caches": replace(KNC, l2_kib_per_core=1.0,
                               llc_mib=4.0 / 1024,
                               row_overhead_cycles=40.0,
                               vec_row_overhead_cycles=2.0),
}
THREADS = (1, 7, None)


def _with_empty_rows():
    """A power-law matrix with every fifth row emptied, the first and
    last rows included."""
    S = gen.power_law(600, avg_deg=12, seed=7).to_scipy().tolil()
    for r in list(range(0, 600, 5)) + [599]:
        S.rows[r], S.data[r] = [], []
    return CSRMatrix.from_scipy(sp.csr_matrix(S))


_MATRICES = {
    "banded": lambda: gen.banded(600, nnz_per_row=9, jitter=1.0, seed=1),
    "random_uniform": lambda: gen.random_uniform(600, 16, seed=2),
    "power_law": lambda: gen.power_law(600, avg_deg=12, seed=3),
    "short_rows": lambda: gen.short_rows(600, seed=4),
    "fem_like": lambda: gen.fem_like(600, seed=5),
    "dense_rows": lambda: gen.with_dense_rows(
        gen.random_uniform(600, 8, seed=6), n_dense=4, dense_nnz=150,
        seed=6),
    "poisson2d": lambda: gen.poisson2d(24),
    "empty_rows": _with_empty_rows,
}


def _grid_kernels():
    flags = product((False, True), repeat=5)
    return [
        ConfiguredSpMV(SpMVConfig(vectorize=v, unroll=u, prefetch=p,
                                  compress=c, decompose=d, schedule=s))
        for (v, u, p, c, d), s in product(flags, SCHEDULES)
    ] + [RegularizedColindSpMV(), UnitStrideSpMV()]


def test_empty_rows_matrix_has_empty_rows():
    row_nnz = _MATRICES["empty_rows"]().row_nnz()
    assert row_nnz[0] == 0 and row_nnz[-1] == 0
    assert np.count_nonzero(row_nnz == 0) >= 120


@pytest.mark.parametrize("machine", sorted(MACHINES))
@pytest.mark.parametrize("matrix", sorted(_MATRICES))
def test_spmv_cost_agrees_with_reference(monkeypatch, matrix, machine):
    m = MACHINES[machine]
    csr = _MATRICES[matrix]()
    for kernel in _grid_kernels():
        data = kernel.preprocess(csr)
        for nthreads in THREADS:
            part = kernel.partition(
                data, m.total_threads if nthreads is None else nthreads)
            got = kernel.cost(data, m, part)
            with monkeypatch.context() as patch:
                patch.setattr(variants, "spmv_cost", reference_spmv_cost)
                patch.setattr(microbench, "spmv_cost",
                              reference_spmv_cost)
                ref = kernel.cost(data, m, part)
            where = (kernel.name, nthreads)
            for name in ("compute_cycles", "stream_bytes", "latency_ns"):
                a, b = getattr(got, name), getattr(ref, name)
                assert a.dtype == b.dtype == np.float64, (where, name)
                np.testing.assert_allclose(a, b, rtol=1e-12, atol=0,
                                           err_msg=f"{where} {name}")
            for name in ("max_unit_cycles", "max_unit_latency_ns", "flops",
                         "working_set_bytes", "mlp"):
                assert getattr(got, name) == getattr(ref, name), (
                    where, name)
