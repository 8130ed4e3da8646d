"""Integration tests for the two reproduction extensions together.

A5 (partitioned ML detection) and A6 (BCSR plug-and-play) interact with
the full optimizer stack; these tests exercise the combined flows.
"""

import numpy as np
import pytest

from repro.core import (
    AdaptiveSpMV,
    Bottleneck,
    ExtendedProfileClassifier,
    OptimizationPool,
)
from repro.machine import KNC
from repro.kernels import baseline_kernel
from repro.matrices import named_matrix
from repro.matrices.generators import fem_like
from repro.model import AnalyticModel


def test_extended_classifier_improves_rajat30_performance():
    """The paper: prefetching 'offers the additional performance boost'
    rajat30 missed. With partitioned detection it must materialize."""
    csr = named_matrix("rajat30", scale=1.0)
    std = AdaptiveSpMV(KNC, classifier="profile").optimize(csr)
    ext = AdaptiveSpMV(
        KNC, classifier=ExtendedProfileClassifier(KNC)
    ).optimize(csr)
    assert Bottleneck.ML not in std.plan.classes
    assert Bottleneck.ML in ext.plan.classes
    assert ext.simulate().gflops > 1.02 * std.simulate().gflops


def test_bcsr_pool_override_wins_on_blocked_fem():
    """Override MB -> bcsr; on a block-structured MB matrix the
    swapped pool must beat the stock one."""
    csr = fem_like(80_000, block=2, neighbors=24, reach=30, seed=71)
    stock = AdaptiveSpMV(KNC, classifier="profile")
    swapped = AdaptiveSpMV(
        KNC, classifier="profile",
        pool=OptimizationPool().override(MB="bcsr"),
    )
    op_stock = stock.optimize(csr)
    op_swapped = swapped.optimize(csr)
    if Bottleneck.MB not in op_stock.plan.classes:
        pytest.skip("matrix not classified MB at this calibration")
    assert op_swapped.plan.optimizations == ("bcsr",)
    # numerics stay exact through the swapped kernel
    x = np.random.default_rng(0).standard_normal(csr.ncols)
    # summation order differs (block tiles vs row-major), allow ulps
    np.testing.assert_allclose(op_swapped.matvec(x), csr.matvec(x),
                               rtol=1e-9, atol=1e-12)
    assert (
        op_swapped.simulate().gflops > op_stock.simulate().gflops
    )


def test_bcsr_override_never_selected_without_mb(banded_csr):
    """A pool override only fires for its class: matrices without MB
    must be untouched by the swap."""
    pool = OptimizationPool().override(MB="bcsr")
    swapped = AdaptiveSpMV(KNC, classifier="profile", pool=pool)
    operator = swapped.optimize(banded_csr)
    if Bottleneck.MB not in operator.plan.classes:
        assert "bcsr" not in operator.plan.optimizations


def test_extensions_do_not_regress_regular_matrices():
    csr = named_matrix("consph", scale=0.5)
    model = AnalyticModel(KNC)
    base = baseline_kernel()
    r_base = model.run(base, base.preprocess(csr))
    ext = AdaptiveSpMV(
        KNC, classifier=ExtendedProfileClassifier(KNC)
    ).optimize(csr)
    assert ext.simulate().gflops >= 0.95 * r_base.gflops
