"""Unit tests for the shared cost model.

The cost plane prices every kernel from exact per-thread totals of
integer counts. The references below are the kernels' cost planes as
they stood when they built per-row (or per-chunk) float arrays and
summed them onto threads, kept operation for operation:
``reference_spmv_cost`` (:func:`spmv_cost`), ``reference_bcsr_cost``,
``reference_sellcs_cost`` and ``reference_long_rows_cost`` (the
decomposed kernel's long-row phase). The agreement grids require the
per-thread totals to match them within ``rtol=1e-12`` and every scalar
field, including the largest-unit costs, to equal them.
"""

import math
from dataclasses import replace
from itertools import product

import numpy as np
import pytest
import scipy.sparse as sp

from repro.formats import CSRMatrix
from repro.kernels import (
    BCSRSpMV,
    ConfiguredSpMV,
    RegularizedColindSpMV,
    SellCSigmaSpMV,
    SpMVConfig,
    UnitStrideSpMV,
    microbench,
    sellcs,
    variants,
)
from repro.kernels.costmodel import (
    _ROWPTR_BYTES_PER_ROW,
    _Y_BYTES_PER_ROW,
    row_compute_cycles,
    spmv_cost,
)
from repro.machine import BROADWELL, KNC, KNL, KernelCost
from repro.machine.cache import x_access_stats, x_miss_cost
from repro.matrices import generators as gen
from repro.sched import balanced_nnz


def _per_thread(partition, per_row):
    """Sum a per-row float array onto the partition's threads."""
    per_row = np.asarray(per_row, dtype=np.float64)
    assert per_row.shape == (partition.nrows,)
    return np.bincount(partition.thread_of_row, weights=per_row,
                       minlength=partition.nthreads)


def _row_x_cost(csr, machine, *, software_prefetch=False):
    """Per-row exposed x-miss latency and x DRAM bytes: the cache
    model's cost of each row's own access counts."""
    stats = x_access_stats(csr, machine.line_elems)
    return x_miss_cost(csr, machine, stats.potential_misses,
                       stats.strided_potential,
                       software_prefetch=software_prefetch)


def row_stream_bytes(row_nnz, *, index_bytes_per_nnz,
                     extra_index_bytes_per_row=0.0, x_dram_bytes=None,
                     x_mode="gather"):
    """Streamed memory traffic per row (matrix arrays + y + x)."""
    nnz = row_nnz.astype(np.float64)
    a_bytes = nnz * (8.0 + index_bytes_per_nnz)
    per_row = (
        a_bytes
        + _ROWPTR_BYTES_PER_ROW
        + extra_index_bytes_per_row
        + _Y_BYTES_PER_ROW
    )
    if x_mode == "gather":
        if x_dram_bytes is not None:
            per_row = per_row + x_dram_bytes
    else:
        # One resident x element per row: negligible, line-amortized.
        per_row = per_row + 8.0
    return per_row


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
        latency_per_row, x_bytes = _row_x_cost(
            csr_structure, machine, software_prefetch=prefetch)
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
        compute_cycles=_per_thread(partition, cycles),
        stream_bytes=_per_thread(partition, bytes_per_row),
        latency_ns=_per_thread(partition, latency_per_row),
        mlp=machine.mlp_prefetch if prefetch else machine.mlp,
        flops=float(flops),
        working_set_bytes=float(working_set_bytes),
        extra_seconds=extra_seconds,
        max_unit_cycles=float(cycles.max(initial=0.0)),
        max_unit_latency_ns=float(latency_per_row.max(initial=0.0)),
    )


def reference_bcsr_cost(self, data, machine, partition):
    """``BCSRSpMV.cost`` over per-block-row arrays, exactly as it
    computed."""
    r = data.block
    m = machine
    nbrows = data.block_rowptr.size - 1
    partition.validate_covers(nbrows)

    blocks_per_brow = np.diff(data.block_rowptr).astype(np.float64)

    simd_iters_per_block = r * max(np.ceil(r / m.simd_doubles), 1.0)
    per_block_cycles = (
        m.vec_iter_base_cycles * simd_iters_per_block
        + m.gather_cycles_per_elem * r
    )
    cycles = (
        m.vec_row_overhead_cycles + blocks_per_brow * per_block_cycles
    )

    bytes_per_brow = blocks_per_brow * (r * r * 8.0 + 4.0) + 8.0 + 16.0

    proxy = CSRMatrix(
        data.block_rowptr.copy(), data.block_colind.copy(),
        np.ones(data.nblocks),
        (nbrows, max(-(-data.ncols // r), 1)),
        trusted=True,
    )
    latency, x_bytes = _row_x_cost(proxy, m)
    bytes_per_brow = bytes_per_brow + x_bytes

    flops = 2.0 * data.nnz
    ws = data.total_nbytes() + 8.0 * (data.nrows + data.ncols)

    return KernelCost(
        compute_cycles=_per_thread(partition, cycles),
        stream_bytes=_per_thread(partition, bytes_per_brow),
        latency_ns=_per_thread(partition, latency),
        mlp=m.mlp,
        flops=flops,
        working_set_bytes=ws,
        max_unit_cycles=float(cycles.max(initial=0.0)),
        max_unit_latency_ns=float(latency.max(initial=0.0)),
    )


def reference_sellcs_cost(self, data, machine, partition):
    """``SellCSigmaSpMV.cost`` over per-chunk arrays, exactly as it
    computed."""
    m = machine
    partition.validate_covers(data.nchunks)
    C = data.chunk
    width = data.chunk_len.astype(np.float64)

    lanes_per_iter = min(C, m.simd_doubles)
    iters = width * np.ceil(C / lanes_per_iter)
    per_iter = (
        m.vec_iter_base_cycles
        + m.gather_cycles_per_elem * lanes_per_iter
    )
    cycles = m.vec_row_overhead_cycles + iters * per_iter

    slots = width * C
    bytes_per_chunk = slots * 12.0 + 16.0 + 16.0 * C

    total_share = slots / max(slots.sum(), 1.0)
    agg = sellcs._aggregate_x_cost(data, m)
    latency = agg["latency_ns"] * total_share
    bytes_per_chunk = bytes_per_chunk + agg["dram_bytes"] * total_share

    flops = 2.0 * data.nnz
    ws = data.total_nbytes() + 8.0 * (data.nrows + data.ncols)
    return KernelCost(
        compute_cycles=_per_thread(partition, cycles),
        stream_bytes=_per_thread(partition, bytes_per_chunk),
        latency_ns=_per_thread(partition, latency),
        mlp=m.mlp,
        flops=flops,
        working_set_bytes=ws,
        max_unit_cycles=float(cycles.max(initial=0.0)),
        max_unit_latency_ns=float(latency.max(initial=0.0)),
    )


def reference_long_rows_cost(self, data, machine, partition, cost):
    """``ConfiguredSpMV._add_long_rows_cost`` with per-row x costs,
    exactly as it computed."""
    cfg = self.config
    d = data.decomposed
    T = partition.nthreads
    long_csr = data.long_part_csr()

    chunk_nnz = np.diff(d.long_rowptr).astype(np.float64) / T
    cycles_per_thread = float(
        row_compute_cycles(
            np.maximum(chunk_nnz, 1.0), machine,
            vectorize=True,
            unroll=cfg.unroll,
            prefetch=cfg.prefetch,
            x_mode="gather",
        ).sum()
    )

    latency, x_bytes = _row_x_cost(long_csr, machine,
                                   software_prefetch=cfg.prefetch)
    long_bytes = (d.long_nnz * 12.0 + float(x_bytes.sum())) / T
    long_latency = float(latency.sum()) / T

    reduce_s = (
        d.n_long_rows
        * math.log2(max(T, 2))
        * variants._REDUCE_NS_PER_LEVEL
        * 1e-9
    )
    barrier_s = machine.parallel_overhead_seconds(T)

    extra = np.full(T, reduce_s + barrier_s)
    if cost.extra_seconds is not None:
        extra = extra + cost.extra_seconds
    return KernelCost(
        compute_cycles=cost.compute_cycles + cycles_per_thread,
        stream_bytes=cost.stream_bytes + long_bytes,
        latency_ns=cost.latency_ns + long_latency,
        mlp=cost.mlp,
        flops=cost.flops,
        working_set_bytes=cost.working_set_bytes + d.long_nnz * 12.0,
        extra_seconds=extra,
        max_unit_cycles=cost.max_unit_cycles,
        max_unit_latency_ns=cost.max_unit_latency_ns,
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


def _one_row(nnz):
    """A one-row matrix with ``nnz`` nonzeros and its 1-thread
    partition."""
    csr = CSRMatrix(np.array([0, nnz]), np.arange(nnz), np.ones(nnz),
                    (1, nnz))
    return csr, balanced_nnz(csr, 1)


def test_stream_bytes_accounting():
    csr, part = _one_row(10)
    b = spmv_cost(csr, KNC, part, index_bytes_per_nnz=4.0,
                  x_mode="sequential").stream_bytes
    # 10 * (8 + 4) + rowptr 8 + y 16 + x 8
    assert b[0] == pytest.approx(10 * 12 + 8 + 16 + 8)


def test_stream_bytes_compressed_index():
    csr, part = _one_row(10)
    full = spmv_cost(csr, KNC, part, index_bytes_per_nnz=4.0,
                     x_mode="unit").stream_bytes
    delta = spmv_cost(csr, KNC, part, index_bytes_per_nnz=1.0,
                      x_mode="unit").stream_bytes
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
            _assert_agrees(got, ref, (kernel.name, nthreads))


def _assert_agrees(got, ref, where):
    """Per-thread arrays within ``rtol=1e-12``, scalars equal."""
    for name in ("compute_cycles", "stream_bytes", "latency_ns"):
        a, b = getattr(got, name), getattr(ref, name)
        assert a.dtype == b.dtype == np.float64, (where, name)
        np.testing.assert_allclose(a, b, rtol=1e-12, atol=0,
                                   err_msg=f"{where} {name}")
    for name in ("max_unit_cycles", "max_unit_latency_ns", "flops",
                 "working_set_bytes", "mlp"):
        assert getattr(got, name) == getattr(ref, name), (where, name)
    if ref.extra_seconds is None:
        assert got.extra_seconds is None, where
    else:
        np.testing.assert_array_equal(got.extra_seconds, ref.extra_seconds,
                                      err_msg=f"{where} extra_seconds")


def _blocked_kernels():
    """BCSR, SELL-C-sigma and every decomposed flag set."""
    return [
        BCSRSpMV(block=2), BCSRSpMV(block=3),
        SellCSigmaSpMV(chunk=8), SellCSigmaSpMV(chunk=4, sigma=64),
    ] + [
        ConfiguredSpMV(SpMVConfig(vectorize=v, unroll=u, prefetch=p,
                                  compress=c, decompose=True, schedule=s))
        for (v, u, p, c), s in product(product((False, True), repeat=4),
                                       ("balanced-nnz", "auto", "dynamic"))
    ]


def test_grid_matrices_have_long_rows():
    """The decomposed kernels price a long-row phase on some of the
    grid's matrices."""
    with_long = [name for name, make in _MATRICES.items()
                 if ConfiguredSpMV(decompose=True).preprocess(make())
                 .decomposed.n_long_rows]
    assert len(with_long) >= 3


@pytest.mark.parametrize("machine", sorted(MACHINES))
@pytest.mark.parametrize("matrix", sorted(_MATRICES))
def test_blocked_costs_agree_with_reference(monkeypatch, matrix, machine):
    """BCSR block rows, SELL-C-sigma chunks and the decomposed long-row
    phase priced from exact per-thread totals agree with their per-row
    references."""
    m = MACHINES[machine]
    csr = _MATRICES[matrix]()
    for kernel in _blocked_kernels():
        data = kernel.preprocess(csr)
        for nthreads in THREADS:
            part = kernel.partition(
                data, m.total_threads if nthreads is None else nthreads)
            got = kernel.cost(data, m, part)
            with monkeypatch.context() as patch:
                patch.setattr(BCSRSpMV, "cost", reference_bcsr_cost)
                patch.setattr(SellCSigmaSpMV, "cost", reference_sellcs_cost)
                patch.setattr(ConfiguredSpMV, "_add_long_rows_cost",
                              reference_long_rows_cost)
                patch.setattr(variants, "spmv_cost", reference_spmv_cost)
                ref = kernel.cost(data, m, part)
            _assert_agrees(got, ref, (kernel.name, nthreads))
