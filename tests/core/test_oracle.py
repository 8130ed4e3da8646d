"""Unit tests for the oracle optimizer."""

from repro.core import AdaptiveSpMV, oracle_configurations, oracle_search
from repro.machine import KNL


def test_configuration_space():
    configs = oracle_configurations()
    # 2^3 joint subsets x 3 IMB strategies
    assert len(configs) == 24
    assert () in configs
    assert ("compression", "prefetching", "unrolling", "decomposition") in [
        tuple(c) for c in configs
    ]


def test_oracle_never_below_baseline(banded_csr, skewed_csr):
    for m in (banded_csr, skewed_csr):
        choice = oracle_search(m, KNL, nthreads=32)
        assert choice.gflops >= choice.baseline.gflops
        assert choice.speedup_over_baseline >= 1.0
        assert choice.n_evaluated == 24


def test_oracle_dominates_adaptive_optimizer():
    from repro.matrices.generators import banded, with_dense_rows

    csr = with_dense_rows(
        banded(40_000, nnz_per_row=4, bandwidth=8, seed=31),
        n_dense=2, dense_nnz=25_000, seed=32,
    )
    choice = oracle_search(csr, KNL)
    opt = AdaptiveSpMV(KNL, classifier="profile")
    adaptive = opt.optimize(csr).simulate()
    assert choice.gflops >= adaptive.gflops * 0.999


def test_oracle_picks_decomposition_for_skew():
    from repro.matrices.generators import banded, with_dense_rows

    csr = with_dense_rows(
        banded(40_000, nnz_per_row=4, bandwidth=8, seed=33),
        n_dense=2, dense_nnz=25_000, seed=34,
    )
    choice = oracle_search(csr, KNL)
    assert "decomposition" in choice.optimizations
