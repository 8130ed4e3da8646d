"""Unit tests for the class -> optimization mapping (paper Table I)."""

import pytest

from repro.core import Bottleneck, OptimizationPool, PoolPolicy
from repro.kernels import merged_pool_kernel
from repro.matrices.features import extract_features


@pytest.fixture
def pool():
    return OptimizationPool()


def test_table1_single_class_mapping(pool, banded_csr):
    f = extract_features(banded_csr)
    assert pool.select({Bottleneck.MB}, f) == ("compression",)
    assert pool.select({Bottleneck.ML}, f) == ("prefetching",)
    assert pool.select({Bottleneck.CMP}, f) == ("unrolling",)


def test_empty_classes_select_nothing(pool, banded_csr):
    f = extract_features(banded_csr)
    assert pool.select(frozenset(), f) == ()
    kernel = merged_pool_kernel(pool.select(frozenset(), f))
    assert kernel.name == "csr"


def test_imb_subselection_decomposition_for_huge_rows(pool, skewed_csr):
    f = extract_features(skewed_csr)
    assert pool.select({Bottleneck.IMB}, f) == ("decomposition",)


def test_imb_subselection_auto_for_even_rows(pool, banded_csr):
    f = extract_features(banded_csr)
    assert pool.select({Bottleneck.IMB}, f) == ("auto-sched",)


def test_imb_needs_features_or_matrix(pool, skewed_csr):
    with pytest.raises(ValueError):
        pool.select({Bottleneck.IMB})
    # matrix alone is enough (features extracted internally)
    assert pool.select({Bottleneck.IMB}, csr=skewed_csr) == (
        "decomposition",
    )


def test_joint_application(pool, skewed_csr):
    f = extract_features(skewed_csr)
    names = pool.select(
        {Bottleneck.ML, Bottleneck.IMB, Bottleneck.CMP}, f
    )
    assert set(names) == {"prefetching", "decomposition", "unrolling"}
    kernel = merged_pool_kernel(pool.select(
        {Bottleneck.ML, Bottleneck.IMB, Bottleneck.CMP}, f
    ))
    cfg = kernel.config
    assert cfg.prefetch and cfg.decompose and cfg.unroll and cfg.vectorize


def test_policy_threshold_controls_subselection(skewed_csr):
    f = extract_features(skewed_csr)
    ratio = f.nnz_max / max(f.nnz_avg, 1.0)
    below = OptimizationPool(PoolPolicy(uneven_row_ratio=ratio * 2))
    assert below.select({Bottleneck.IMB}, f) == ("auto-sched",)
    above = OptimizationPool(PoolPolicy(uneven_row_ratio=ratio / 2))
    assert above.select({Bottleneck.IMB}, f) == ("decomposition",)


def test_policy_validation():
    with pytest.raises(ValueError):
        PoolPolicy(uneven_row_ratio=1.0)
