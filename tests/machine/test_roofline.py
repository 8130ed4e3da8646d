"""Unit tests for the roofline utilities."""

import pytest

from repro.kernels import baseline_kernel
from repro.machine import KNC, KNL, BROADWELL
from repro.machine.roofline import (
    attainable_gflops,
    peak_gflops,
    ridge_point,
    roofline_point,
)
from repro.model import AnalyticModel


def test_peak_ordering_across_platforms():
    # Phis have far higher FLOP roofs than Broadwell (wide SIMD, cores)
    assert peak_gflops(KNL) > peak_gflops(KNC) > peak_gflops(BROADWELL)


def test_ridge_point_definition():
    r = ridge_point(KNC)
    assert attainable_gflops(KNC, r) == pytest.approx(peak_gflops(KNC),
                                                      rel=1e-9)


def test_attainable_regimes():
    # far below the ridge: bandwidth-limited, linear in intensity
    low = attainable_gflops(KNC, 0.1)
    assert low == pytest.approx(0.1 * KNC.bw_main_gbs, rel=1e-9)
    # far above: flat compute roof
    assert attainable_gflops(KNC, 1e4) == pytest.approx(peak_gflops(KNC))


def test_attainable_validates_intensity():
    with pytest.raises(ValueError):
        attainable_gflops(KNC, 0.0)


def test_spmv_is_memory_bound_on_roofline(banded_csr):
    """The paper's premise: CSR SpMV sits far left of the ridge."""
    model = AnalyticModel(KNC)
    base = baseline_kernel()
    r = model.run(base, base.preprocess(banded_csr))
    point = roofline_point(r, KNC)
    assert point.bound == "memory"
    assert point.intensity < 1.0         # flop:byte < 1, paper §II
    assert 0.0 < point.roof_utilization <= 1.05


def test_llc_resident_ws_raises_attainable(banded_csr):
    small_ws = attainable_gflops(KNC, 0.2, ws_bytes=1 << 20)
    big_ws = attainable_gflops(KNC, 0.2, ws_bytes=1 << 30)
    assert small_ws > big_ws             # footnote 2 of the paper
