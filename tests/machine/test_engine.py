"""Unit tests for the simulator's time model (``AnalyticModel.run``)."""

import numpy as np
import pytest

from repro.kernels import baseline_kernel, ConfiguredSpMV, SpMVConfig
from repro.machine import KernelCost, KNC, RunResult
from repro.model import AnalyticModel
from repro.sched import Partition, balanced_nnz


def _cost(T=4, cycles=1e6, bytes_=1e6, lat=0.0, mlp=2.0, ws=1e9):
    return KernelCost(
        compute_cycles=np.full(T, cycles),
        stream_bytes=np.full(T, bytes_),
        latency_ns=np.full(T, lat),
        mlp=mlp,
        flops=1e6,
        working_set_bytes=ws,
    )


class _StubKernel:
    name = "stub"

    def __init__(self, cost):
        self._cost = cost

    def cost(self, data, machine, partition):
        return self._cost

    def partition(self, data, nthreads):
        return Partition(self._cost.compute_cycles.size,
                         np.arange(self._cost.compute_cycles.size,
                                   dtype=np.int32))


def _run(cost, machine=KNC):
    T = cost.compute_cycles.size
    model = AnalyticModel(machine, nthreads=T)
    return model.run(_StubKernel(cost), None)


def test_compute_bound_time():
    cost = _cost(cycles=1.1e9 / 4, bytes_=1.0, lat=0.0)  # 1s/smt of work
    r = _run(cost)
    # cycles * smt / freq = (1.1e9/4) * 4 / 1.1e9 = 1 second
    assert r.seconds == pytest.approx(1.0, rel=1e-3)


def test_bandwidth_bound_time():
    T = 4
    cost = _cost(T=T, cycles=1.0, bytes_=128e9 / T, lat=0.0)
    r = _run(cost)  # total 128 GB at 128 GB/s main bandwidth
    assert r.seconds == pytest.approx(1.0, rel=1e-3)


def test_latency_bound_time():
    cost = _cost(cycles=1.0, bytes_=1.0, lat=2e9, mlp=2.0)  # 2s/2 = 1s
    r = _run(cost)
    assert r.seconds == pytest.approx(1.0, rel=1e-3)


def test_overlap_takes_max_not_sum():
    cost = _cost(cycles=1.1e9 / 4, bytes_=128e9 / 4, lat=2e9, mlp=2.0)
    r = _run(cost)
    assert r.seconds == pytest.approx(1.0, rel=1e-2)  # not 3 seconds


def test_global_bandwidth_floor():
    # one thread holds all the bytes: per-thread share model would let
    # it stream at bw/T, but the floor is total/bw
    T = 4
    cycles = np.full(T, 1.0)
    bytes_ = np.zeros(T)
    bytes_[0] = 128e9
    cost = KernelCost(
        compute_cycles=cycles, stream_bytes=bytes_,
        latency_ns=np.zeros(T), mlp=2.0, flops=1.0,
        working_set_bytes=1e9,
    )
    r = _run(cost)
    assert r.seconds >= 1.0


def test_llc_resident_working_set_gets_fast_bandwidth():
    slow = _run(_cost(cycles=1.0, bytes_=1e8 / 4, ws=1e9))
    fast = _run(_cost(cycles=1.0, bytes_=1e8 / 4, ws=1e6))
    assert fast.seconds < slow.seconds


def test_barrier_overhead_added():
    cost = _cost(cycles=0.0, bytes_=0.0, lat=0.0)
    r = _run(cost)
    assert r.seconds >= KNC.parallel_overhead_seconds(4)


def test_run_result_properties():
    cost = _cost()
    r = _run(cost)
    assert isinstance(r, RunResult)
    assert r.gflops == pytest.approx(cost.flops / r.seconds / 1e9)
    assert r.imbalance == pytest.approx(1.0, rel=1e-6)
    assert r.median_thread_seconds > 0


def test_engine_runs_real_kernel(banded_csr):
    model = AnalyticModel(KNC)
    kernel = baseline_kernel()
    r = model.run(kernel, kernel.preprocess(banded_csr))
    assert r.nthreads == 228
    assert r.gflops > 0
    assert r.thread_seconds.shape == (228,)


def test_explicit_partition_respected(banded_csr):
    model = AnalyticModel(KNC, nthreads=16)
    kernel = baseline_kernel()
    part = balanced_nnz(banded_csr, 16)
    r = model.run(kernel, kernel.preprocess(banded_csr), part)
    assert r.nthreads == 16


def test_fewer_threads_usually_slower(banded_csr):
    kernel = baseline_kernel()
    data = kernel.preprocess(banded_csr)
    full = AnalyticModel(KNC).run(kernel, data)
    r4 = AnalyticModel(KNC, nthreads=4).run(kernel, data)
    assert r4.seconds > full.seconds


def test_dynamic_schedule_balances(skewed_csr):
    kernel_static = ConfiguredSpMV(SpMVConfig(schedule="static-rows"))
    kernel_dyn = ConfiguredSpMV(SpMVConfig(schedule="dynamic"))
    model = AnalyticModel(KNC)
    r_static = model.run(kernel_static, kernel_static.preprocess(skewed_csr))
    r_dyn = model.run(kernel_dyn, kernel_dyn.preprocess(skewed_csr))
    assert r_dyn.imbalance <= r_static.imbalance


def test_invalid_thread_count(banded_csr):
    with pytest.raises(ValueError):
        AnalyticModel(KNC, nthreads=0)
    kernel = baseline_kernel()
    data = kernel.preprocess(banded_csr)
    with pytest.raises(ValueError):
        AnalyticModel(KNC).run(kernel, data, nthreads=0)
    # an explicit partition fixes the width, but the count is still
    # validated per call
    with pytest.raises(ValueError):
        AnalyticModel(KNC).run(kernel, data, balanced_nnz(banded_csr, 4),
                               nthreads=0)


def test_kernel_cost_validation():
    with pytest.raises(ValueError, match="equal shape"):
        KernelCost(
            compute_cycles=np.zeros(4),
            stream_bytes=np.zeros(3),
            latency_ns=np.zeros(4),
            mlp=1.0,
            flops=1.0,
            working_set_bytes=1.0,
        )
    with pytest.raises(ValueError, match="mlp"):
        KernelCost(
            compute_cycles=np.zeros(4),
            stream_bytes=np.zeros(4),
            latency_ns=np.zeros(4),
            mlp=0.0,
            flops=1.0,
            working_set_bytes=1.0,
        )
