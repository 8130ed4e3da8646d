"""Bitwise reference for the simulator's time model.

``reference_run`` and ``reference_bounds`` below are the time model and
the bound derivation as they stood before the model moved into
:meth:`repro.model.AnalyticModel.run`: the former
``machine.ExecutionEngine.run`` and ``ExecutionEngine._finalize``,
kept operation for operation. Every simulated number the paper
figures, the plans and the bounds read comes from this model, so
``AnalyticModel.run`` (and ``CalibratedModel.run`` under an identity
profile) must equal the reference bitwise over a grid of every
configured kernel x schedule, both bound micro-kernels, BCSR and
SELL-C-sigma, seven generator matrices, the three platforms and three
thread counts. ``bounds()`` is checked the same way. Both sides run in
this process, so a numpy with another summation order moves them
alike.
"""

from itertools import product

import numpy as np
import pytest

from repro.kernels import (
    ConfiguredSpMV,
    RegularizedColindSpMV,
    SpMVConfig,
    UnitStrideSpMV,
    baseline_kernel,
)
from repro.kernels.bcsr import BCSRSpMV
from repro.kernels.sellcs import SellCSigmaSpMV
from repro.machine import BROADWELL, KNC, KNL, RunResult
from repro.matrices import generators as gen
from repro.model import AnalyticModel, CalibratedModel, MachineProfile
from repro.model.base import PerformanceBounds

#: Core cycles to grab one scheduling chunk (the reference's constant).
_CHUNK_DISPATCH_CYCLES = 120.0


def reference_run(machine, nthreads, kernel, data, partition=None):
    """One simulated execution, exactly as the reference computed it."""
    nthreads = machine.total_threads if nthreads is None else int(nthreads)
    if nthreads < 1:
        raise ValueError("nthreads must be >= 1")
    if partition is None:
        partition = kernel.partition(data, nthreads)
    cost = kernel.cost(data, machine, partition)
    return _reference_finalize(machine, kernel.name, cost, partition)


def _reference_finalize(m, name, cost, partition):
    T = partition.nthreads

    t_comp = cost.compute_cycles * (m.smt / m.freq_hz)
    bw = m.bandwidth_for_working_set(cost.working_set_bytes)
    t_bw = cost.stream_bytes / (bw / T)
    t_lat = cost.latency_ns * (1e-9 / cost.mlp)

    thread = np.maximum(np.maximum(t_comp, t_bw), t_lat)
    if cost.extra_seconds is not None:
        thread = thread + cost.extra_seconds

    if partition.kind in ("auto", "dynamic"):
        chunks_per_thread = partition.n_chunks() / max(T, 1)
        dispatch = chunks_per_thread * _CHUNK_DISPATCH_CYCLES * (
            m.smt / m.freq_hz
        )
        thread = thread + dispatch

    if partition.is_dynamic:
        unit_floor = max(
            cost.max_unit_cycles * (m.smt / m.freq_hz),
            cost.max_unit_latency_ns * (1e-9 / cost.mlp),
        )
        thread = np.full_like(
            thread, max(float(thread.mean()), unit_floor)
        )

    makespan = float(thread.max(initial=0.0))
    total_bytes = float(cost.stream_bytes.sum())
    makespan = max(makespan, total_bytes / bw)
    makespan += m.parallel_overhead_seconds(T)

    return RunResult(
        kernel_name=name,
        machine_codename=m.codename,
        nthreads=T,
        seconds=makespan,
        thread_seconds=thread,
        flops=cost.flops,
        total_bytes=total_bytes,
        schedule_kind=partition.kind,
        breakdown={
            "compute_s": t_comp,
            "bandwidth_s": t_bw,
            "latency_s": t_lat,
            "bandwidth_level_gbs": bw / 1e9,
        },
    )


def reference_bounds(machine, nthreads, csr):
    """The bound derivation over ``reference_run``."""
    flops = 2.0 * csr.nnz
    base = baseline_kernel()
    data = base.preprocess(csr)
    width = machine.total_threads if nthreads is None else nthreads
    partition = base.partition(data, width)
    r_csr = reference_run(machine, nthreads, base, data, partition)
    m_xy = 8.0 * (csr.ncols + csr.nrows)
    ws = csr.total_nbytes() + m_xy
    bw = machine.bandwidth_for_working_set(ws)
    p_mb = flops / ((csr.total_nbytes() + m_xy) / bw) / 1e9
    p_peak = flops / ((csr.value_nbytes() + m_xy) / bw) / 1e9
    r_ml = reference_run(machine, nthreads, RegularizedColindSpMV(), csr,
                         partition)
    r_cmp = reference_run(machine, nthreads, UnitStrideSpMV(), csr,
                          partition)
    t_median = (
        r_csr.median_thread_seconds
        + machine.parallel_overhead_seconds(r_csr.nthreads)
    )
    return PerformanceBounds(
        p_csr=r_csr.gflops, p_mb=p_mb, p_ml=r_ml.gflops,
        p_imb=flops / t_median / 1e9, p_cmp=r_cmp.gflops, p_peak=p_peak,
        baseline=r_csr, machine_codename=machine.codename,
    )


def assert_bitwise(got: RunResult, ref: RunResult) -> None:
    for name in ("kernel_name", "machine_codename", "nthreads", "seconds",
                 "flops", "total_bytes", "schedule_kind"):
        assert getattr(got, name) == getattr(ref, name), name
    arrays = [("thread_seconds", got.thread_seconds, ref.thread_seconds)]
    assert got.breakdown.keys() == ref.breakdown.keys()
    arrays += [(k, np.asarray(got.breakdown[k]), np.asarray(ref.breakdown[k]))
               for k in ref.breakdown]
    for name, a, b in arrays:
        assert a.dtype == b.dtype, name
        assert np.array_equal(a, b), name


# -- the grid -------------------------------------------------------------

MACHINES = {"knc": KNC, "knl": KNL, "broadwell": BROADWELL}
THREADS = (None, 1, 7)
SCHEDULES = ("static-rows", "balanced-nnz", "auto", "dynamic")


def _kernels():
    flags = product((False, True), repeat=5)
    kernels = [
        ConfiguredSpMV(SpMVConfig(vectorize=v, unroll=u, prefetch=p,
                                  compress=c, decompose=d, schedule=s))
        for (v, u, p, c, d), s in product(flags, SCHEDULES)
    ]
    return kernels + [RegularizedColindSpMV(), UnitStrideSpMV(),
                      BCSRSpMV(), SellCSigmaSpMV()]


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
}


@pytest.fixture(scope="module", params=sorted(_MATRICES))
def prepared(request):
    """One matrix with every grid kernel's data, built once."""
    csr = _MATRICES[request.param]()
    return csr, [(k, k.preprocess(csr)) for k in _kernels()]


def test_grid_covers_every_kernel():
    kernels = _kernels()
    assert len(kernels) == 132
    assert len({k.name for k in kernels}) == 132


@pytest.mark.parametrize("machine", sorted(MACHINES))
def test_analytic_run_equals_reference(prepared, machine):
    m = MACHINES[machine]
    _, pairs = prepared
    for nthreads in THREADS:
        model = AnalyticModel(m, nthreads)
        for kernel, data in pairs:
            ref = reference_run(m, nthreads, kernel, data)
            assert_bitwise(model.run(kernel, data), ref)


@pytest.mark.parametrize("machine", sorted(MACHINES))
def test_per_call_thread_count_equals_reference(prepared, machine):
    m = MACHINES[machine]
    _, pairs = prepared
    model = AnalyticModel(m)
    for nthreads in (1, 7):
        for kernel, data in pairs[::11]:
            assert_bitwise(model.run(kernel, data, nthreads=nthreads),
                           reference_run(m, nthreads, kernel, data))


@pytest.mark.parametrize("machine", sorted(MACHINES))
def test_calibrated_identity_run_equals_reference(prepared, machine):
    m = MACHINES[machine]
    _, pairs = prepared
    profile = MachineProfile.identity(m.name)
    for nthreads in THREADS:
        model = CalibratedModel(m, profile, nthreads)
        for kernel, data in pairs:
            assert_bitwise(model.run(kernel, data),
                           reference_run(m, nthreads, kernel, data))


@pytest.mark.parametrize("machine", sorted(MACHINES))
def test_bounds_equal_reference(prepared, machine):
    m = MACHINES[machine]
    csr, _ = prepared
    for nthreads in THREADS:
        got = AnalyticModel(m, nthreads).bounds(csr)
        ref = reference_bounds(m, nthreads, csr)
        assert got.as_dict() == ref.as_dict()
        assert got.machine_codename == ref.machine_codename
        assert_bitwise(got.baseline, ref.baseline)


def test_explicit_partition_equals_reference(banded_csr):
    kernel = baseline_kernel()
    data = kernel.preprocess(banded_csr)
    partition = kernel.partition(data, 5)
    # The partition fixes the width; the model's thread count does not.
    got = AnalyticModel(KNL, 3).run(kernel, data, partition)
    assert_bitwise(got, reference_run(KNL, 3, kernel, data, partition))
    assert got.nthreads == 5
