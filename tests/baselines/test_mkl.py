"""Unit tests for the MKL-CSR analogue."""

import numpy as np

from repro.baselines import mkl_csr_kernel, run_mkl_csr
from repro.kernels import baseline_kernel
from repro.machine import KNL
from repro.model import AnalyticModel


def test_kernel_configuration():
    k = mkl_csr_kernel()
    assert k.name == "mkl-csr"
    assert k.config.vectorize
    assert k.config.schedule == "static-rows"
    assert not k.config.prefetch and not k.config.compress


def test_numerically_exact(small_random_csr, x300):
    k = mkl_csr_kernel()
    np.testing.assert_allclose(
        k.run_numeric(small_random_csr, x300),
        small_random_csr.matvec(x300),
        rtol=1e-12,
    )


def test_beats_scalar_baseline_on_regular(banded_csr):
    """Vectorized vendor kernel should outrun the scalar baseline on
    regular matrices (otherwise our comparisons are strawmen)."""
    model = AnalyticModel(KNL)
    base = baseline_kernel()
    r_mkl = run_mkl_csr(banded_csr, KNL)
    r_base = model.run(base, base.preprocess(banded_csr))
    assert r_mkl.gflops >= r_base.gflops * 0.95


def test_suffers_on_skewed(skewed_csr):
    """Row-blocked static scheduling collapses on skewed matrices —
    the property the paper's IMB speedups over MKL come from."""
    r = run_mkl_csr(skewed_csr, KNL, nthreads=32)
    assert r.imbalance > 2.0
