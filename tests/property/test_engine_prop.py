"""Property-based tests on the simulator time model's monotonicities.

A sane time model must respond in the right direction to more work,
more bandwidth, and lower latency — these invariants pin the model so
recalibration cannot silently invert it.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.machine import KNC, KernelCost
from repro.model import AnalyticModel
from repro.sched import Partition


def _cost(T, cycles, bytes_, lat, mlp=2.0, ws=1e9):
    return KernelCost(
        compute_cycles=np.asarray(cycles, dtype=np.float64),
        stream_bytes=np.asarray(bytes_, dtype=np.float64),
        latency_ns=np.asarray(lat, dtype=np.float64),
        mlp=mlp,
        flops=1e6,
        working_set_bytes=ws,
    )


class _Stub:
    name = "stub"

    def __init__(self, cost):
        self._cost = cost

    def cost(self, data, machine, partition):
        return self._cost


def _run(cost, machine=KNC):
    T = cost.compute_cycles.size
    part = Partition(T, np.arange(T, dtype=np.int32))
    return AnalyticModel(machine, nthreads=T).run(_Stub(cost), None, part)


_pos = st.floats(1.0, 1e12, allow_nan=False, allow_infinity=False)
_T = st.integers(1, 16)


@given(_T, _pos, _pos, _pos, st.floats(1.1, 4.0))
@settings(max_examples=60, deadline=None)
def test_more_work_never_faster(T, cycles, bytes_, lat, factor):
    base = _cost(T, [cycles] * T, [bytes_] * T, [lat] * T)
    more = _cost(T, [cycles * factor] * T, [bytes_ * factor] * T,
                 [lat * factor] * T)
    assert _run(more).seconds >= _run(base).seconds


@given(_T, _pos, _pos, _pos)
@settings(max_examples=60, deadline=None)
def test_higher_mlp_never_slower(T, cycles, bytes_, lat):
    low = _cost(T, [cycles] * T, [bytes_] * T, [lat] * T, mlp=1.5)
    high = _cost(T, [cycles] * T, [bytes_] * T, [lat] * T, mlp=8.0)
    assert _run(high).seconds <= _run(low).seconds


@given(_T, _pos, _pos)
@settings(max_examples=60, deadline=None)
def test_llc_resident_never_slower(T, cycles, bytes_):
    big = _cost(T, [cycles] * T, [bytes_] * T, [0.0] * T, ws=10 * KNC.llc_bytes)
    small = _cost(T, [cycles] * T, [bytes_] * T, [0.0] * T, ws=1 << 16)
    assert _run(small).seconds <= _run(big).seconds


@given(_T, _pos, _pos, _pos)
@settings(max_examples=60, deadline=None)
def test_makespan_dominates_every_component(T, cycles, bytes_, lat):
    cost = _cost(T, [cycles] * T, [bytes_] * T, [lat] * T)
    r = _run(cost)
    m = KNC
    t_comp = cycles * m.smt / m.freq_hz
    t_lat = lat * 1e-9 / cost.mlp
    assert r.seconds >= t_comp * (1 - 1e-12)
    assert r.seconds >= t_lat * (1 - 1e-12)
    assert r.seconds >= T * bytes_ / m.bandwidth_for_working_set(1e9) * (
        1 - 1e-12
    )
    assert r.seconds >= m.parallel_overhead_seconds(T)


@given(_T, _pos)
@settings(max_examples=40, deadline=None)
def test_gflops_consistency(T, cycles):
    cost = _cost(T, [cycles] * T, [1.0] * T, [0.0] * T)
    r = _run(cost)
    assert r.gflops == pytest.approx(cost.flops / r.seconds / 1e9)
