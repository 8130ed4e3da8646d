"""Property-based tests: every kernel variant is numerically exact and
its cost plane is well-formed on arbitrary matrices."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.kernels import ConfiguredSpMV, SpMVConfig
from repro.machine import KNC, KNL
from repro.sched import balanced_nnz

from .test_formats_prop import sparse_matrices

_configs = st.builds(
    SpMVConfig,
    vectorize=st.booleans(),
    unroll=st.booleans(),
    prefetch=st.booleans(),
    compress=st.booleans(),
    decompose=st.booleans(),
    schedule=st.sampled_from(
        ["static-rows", "balanced-nnz", "auto", "dynamic"]
    ),
)


@given(sparse_matrices(), _configs, st.integers(0, 2**31 - 1))
@settings(max_examples=80, deadline=None)
def test_any_variant_numerically_exact(csr, config, seed):
    kernel = ConfiguredSpMV(config)
    x = np.random.default_rng(seed).uniform(-1, 1, size=csr.ncols)
    y = kernel.run_numeric(csr, x)
    # Every variant runs the compiled CSR kernel on its format, so the
    # result matches the plain CSR one bitwise.
    np.testing.assert_array_equal(y, csr.matvec(x))


@given(sparse_matrices(), _configs, st.integers(1, 16),
       st.sampled_from([KNC, KNL]))
@settings(max_examples=80, deadline=None)
def test_any_variant_cost_well_formed(csr, config, nthreads, machine):
    kernel = ConfiguredSpMV(config)
    data = kernel.preprocess(csr)
    partition = kernel.partition(data, nthreads)
    cost = kernel.cost(data, machine, partition)
    # Degenerate inputs clamp the effective thread count (never above
    # the request); per-thread aggregates follow the partition.
    assert 1 <= partition.nthreads <= nthreads
    assert cost.compute_cycles.shape == (partition.nthreads,)
    assert np.all(cost.compute_cycles >= 0)
    assert np.all(cost.stream_bytes >= 0)
    assert np.all(cost.latency_ns >= 0)
    assert np.isfinite(cost.working_set_bytes)
    assert cost.flops == 2.0 * csr.nnz


@given(sparse_matrices(), st.integers(1, 16))
@settings(max_examples=60, deadline=None)
def test_cost_totals_independent_of_thread_count(csr, nthreads):
    """Splitting work across more threads must conserve total cycles
    and bytes (for thread-count-independent kernels)."""
    kernel = ConfiguredSpMV(SpMVConfig())
    data = kernel.preprocess(csr)
    c1 = kernel.cost(data, KNC, balanced_nnz(csr, 1))
    cn = kernel.cost(data, KNC, balanced_nnz(csr, nthreads))
    np.testing.assert_allclose(
        cn.compute_cycles.sum(), c1.compute_cycles.sum(), rtol=1e-9
    )
    np.testing.assert_allclose(
        cn.stream_bytes.sum(), c1.stream_bytes.sum(), rtol=1e-9
    )
    np.testing.assert_allclose(
        cn.latency_ns.sum(), c1.latency_ns.sum(), rtol=1e-9
    )
