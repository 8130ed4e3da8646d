"""AnalyticModel: protocol conformance and the sanity properties every
cost model must satisfy (bitwise equality with the reference time
model is in ``test_simulator_reference.py``)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.kernels import baseline_kernel
from repro.machine import BROADWELL, KNL
from repro.matrices.generators import banded
from repro.model import AnalyticModel, CostModel, Prediction


@pytest.fixture(scope="module")
def csr():
    return banded(3000, nnz_per_row=9, seed=3)


def test_satisfies_protocol():
    assert isinstance(AnalyticModel(KNL), CostModel)


def test_predict_decomposition(csr):
    kernel = baseline_kernel()
    pred = AnalyticModel(KNL, 8).predict(kernel, kernel.preprocess(csr))
    assert isinstance(pred, Prediction)
    assert pred.seconds > 0 and pred.gflops > 0
    assert pred.nthreads == 8
    assert {"compute_s", "bandwidth_s"} <= pred.decomposition.keys()
    assert pred.dominant_term() in ("compute_s", "bandwidth_s",
                                    "latency_s")
    assert pred.result.seconds == pred.seconds


@settings(max_examples=12, deadline=None)
@given(st.integers(min_value=200, max_value=3000))
def test_monotonic_in_nnz(n):
    """More nonzeros (same structure family, same machine, same
    threads) must never be predicted faster."""
    kernel = baseline_kernel()
    model = AnalyticModel(KNL, 4)

    small = banded(n, nnz_per_row=5, seed=1)
    large = banded(2 * n, nnz_per_row=5, seed=1)
    t_small = model.run(kernel, kernel.preprocess(small)).seconds
    t_large = model.run(kernel, kernel.preprocess(large)).seconds
    assert large.nnz > small.nnz
    assert t_large >= t_small


@settings(max_examples=8, deadline=None)
@given(st.sampled_from([1, 2, 4, 8, 16]))
def test_nthreads_sane(t):
    """On a large regular matrix, t threads are never predicted slower
    than 1 thread, and per-thread busy time shrinks with width."""
    kernel = baseline_kernel()
    csr = banded(60_000, nnz_per_row=9, seed=2)
    data = kernel.preprocess(csr)
    model = AnalyticModel(KNL)
    serial = model.run(kernel, data, nthreads=1)
    wide = model.run(kernel, data, nthreads=t)
    assert wide.nthreads == t
    assert wide.seconds <= serial.seconds * 1.0000001
    assert np.max(wide.thread_seconds) <= np.max(serial.thread_seconds)


def test_nthreads_override_per_call(csr):
    kernel = baseline_kernel()
    data = kernel.preprocess(csr)
    model = AnalyticModel(KNL, 2)
    assert model.run(kernel, data).nthreads == 2
    assert model.run(kernel, data, nthreads=4).nthreads == 4
    # the override does not rebind the default
    assert model.run(kernel, data).nthreads == 2


def test_suggest_deadline_floor_and_scaling(csr):
    kernel = baseline_kernel()
    data = kernel.preprocess(csr)
    model = AnalyticModel(KNL, 4)
    predicted = model.run(kernel, data).seconds
    d = model.suggest_deadline(kernel, data, safety=50.0, floor=0.05)
    assert d == max(0.05, 50.0 * predicted)
    assert model.suggest_deadline(kernel, data, floor=1e9) == 1e9


def test_signatures():
    model = AnalyticModel(KNL)
    assert model.signature() == "analytic"
    # The plan-cache key names the model; an explicit analytic model
    # shares the default optimizer's key.
    from repro.core import AdaptiveSpMV

    default = AdaptiveSpMV(KNL, classifier="profile")
    explicit = AdaptiveSpMV(KNL, classifier="profile", model=model)
    assert (explicit._execution_signature()
            == default._execution_signature())
    assert "model=analytic" in default._execution_signature()


def test_bounds_ordering(csr):
    """Structural guarantees of Section III-B hold through the model."""
    for machine in (KNL, BROADWELL):
        b = AnalyticModel(machine).bounds(csr)
        assert b.p_peak >= b.p_mb > 0
        assert b.p_imb >= b.p_csr * 0.999
        assert all(np.isfinite(v) for v in b.as_dict().values())
