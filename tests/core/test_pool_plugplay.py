"""Tests for the plug-and-play pool extension point.

The paper's Section V argues its decisive advantage over format-
selection autotuners: "our decision-making approach allows an
autotuning framework to be easily extended, simply by assigning the
new optimization to one of the classes." These tests exercise exactly
that workflow.
"""

import numpy as np
import pytest

from repro.core import AdaptiveSpMV, Bottleneck, OptimizationPool
from repro.kernels import (
    SpMVConfig,
    merged_pool_kernel,
    pool_kernel,
    register_pool_optimization,
    registered_pool_names,
)
from repro.machine import KNL
from repro.matrices.features import extract_features


@pytest.fixture
def custom_name():
    """Register a fresh custom optimization (idempotent per session)."""
    name = "compression-16-forced"
    if name not in registered_pool_names():
        register_pool_optimization(
            name, SpMVConfig(compress=True, vectorize=True, delta_width=16)
        )
    return name


def test_register_and_resolve(custom_name):
    kernel = pool_kernel(custom_name)
    assert kernel.config.delta_width == 16
    assert custom_name in registered_pool_names()


def test_cannot_shadow_canonical():
    with pytest.raises(ValueError, match="shadow"):
        register_pool_optimization("compression", SpMVConfig())


def test_register_validates_config():
    with pytest.raises(TypeError):
        register_pool_optimization("bogus-entry", {"compress": True})


def test_override_mb_mapping(custom_name, banded_csr):
    pool = OptimizationPool().override(MB=custom_name)
    f = extract_features(banded_csr)
    assert pool.select({Bottleneck.MB}, f) == (custom_name,)
    kernel = merged_pool_kernel(pool.select({Bottleneck.MB}, f))
    assert kernel.config.delta_width == 16


def test_override_with_callable(banded_csr):
    pool = OptimizationPool().override(
        CMP=lambda features: "unrolling" if features.nnz_avg > 4
        else "prefetching"
    )
    f = extract_features(banded_csr)
    assert pool.select({Bottleneck.CMP}, f) == ("unrolling",)


def test_override_validation():
    pool = OptimizationPool()
    with pytest.raises(ValueError, match="unknown class"):
        pool.override(XXL="compression")
    with pytest.raises(TypeError):
        pool.override(MB=42)


def test_mapping_constructor_arg(banded_csr):
    pool = OptimizationPool(
        mapping={Bottleneck.ML: "unrolling"}
    )
    f = extract_features(banded_csr)
    assert pool.select({Bottleneck.ML}, f) == ("unrolling",)


def test_custom_pool_flows_through_optimizer(custom_name):
    """End to end: optimizer + overridden pool, no classifier change."""
    from repro.matrices.generators import banded

    csr = banded(60_000, nnz_per_row=24, bandwidth=60, seed=5)
    pool = OptimizationPool().override(MB=custom_name)
    opt = AdaptiveSpMV(KNL, classifier="profile", pool=pool)
    operator = opt.optimize(csr)
    if Bottleneck.MB in operator.plan.classes:
        assert operator.plan.optimizations == (custom_name,)
    # numeric plane still exact
    x = np.random.default_rng(0).standard_normal(csr.ncols)
    np.testing.assert_allclose(operator.matvec(x), csr.matvec(x),
                               rtol=1e-12)
