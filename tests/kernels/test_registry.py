"""Unit tests for the optimization-pool kernel registry."""

import numpy as np
import pytest

from repro.kernels import (
    merged_pool_kernel,
    pairwise_optimization_kernels,
    pool_kernel,
    pool_names,
    single_optimization_kernels,
)


def test_five_single_optimizations():
    """The paper's trivial-single sweeps 'a total of 5' optimizations."""
    assert len(pool_names()) == 5
    assert set(pool_names()) == {
        "compression", "prefetching", "decomposition", "auto-sched",
        "unrolling",
    }


def test_fifteen_combined():
    """Singles plus pairs: 'total of 15 in our case'."""
    assert len(pairwise_optimization_kernels()) == 15


def test_table1_mapping():
    assert pool_kernel("compression").config.compress
    assert pool_kernel("compression").config.vectorize   # MB: delta + vec
    assert pool_kernel("prefetching").config.prefetch
    assert pool_kernel("decomposition").config.decompose
    assert pool_kernel("auto-sched").config.schedule == "auto"
    assert pool_kernel("unrolling").config.unroll
    assert pool_kernel("unrolling").config.vectorize     # CMP: unroll + vec


def test_unknown_name_rejected():
    with pytest.raises(ValueError):
        pool_kernel("blocking")
    with pytest.raises(ValueError):
        merged_pool_kernel(("compression", "blocking"))


def test_merged_kernel_joint_flags():
    k = merged_pool_kernel(("compression", "prefetching", "auto-sched"))
    cfg = k.config
    assert cfg.compress and cfg.vectorize and cfg.prefetch
    assert cfg.schedule == "auto"


def test_merged_empty_is_baseline():
    k = merged_pool_kernel(())
    assert k.name == "csr"


def test_merged_kernels_numeric(small_random_csr, x300):
    expected = small_random_csr.matvec(x300)
    for names in (("compression", "decomposition"),
                  ("prefetching", "unrolling"),
                  ("compression", "prefetching", "unrolling",
                   "decomposition")):
        k = merged_pool_kernel(names)
        np.testing.assert_allclose(
            k.run_numeric(small_random_csr, x300), expected, rtol=1e-12
        )


def test_singles_are_fresh_instances():
    a = single_optimization_kernels()
    b = single_optimization_kernels()
    assert a["compression"] is not b["compression"]
    assert a["compression"].config == b["compression"].config
