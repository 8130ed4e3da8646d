"""Perf smoke (``-m perf_smoke``): measured parallel imbalance sanity.

Executes the real thread pool at ``nthreads=2`` on a skewed matrix and
asserts the *measured* per-thread CPU-time imbalance orders the
schedule policies the way the paper's P_IMB analysis predicts:
nnz-balanced partitioning must not be meaningfully worse than naive
row splitting when the nnz distribution is skewed. CPU time (not wall
time) is compared so the gate stays robust on oversubscribed CI hosts;
the median over repeats absorbs scheduler noise.
"""

import statistics

import numpy as np
import pytest

from repro.engine import ParallelExecutor
from repro.kernels import baseline_kernel

#: static-rows may beat balanced-nnz only within this noise margin.
MARGIN = 1.10
REPEATS = 5
NTHREADS = 2


def _skewed():
    """First half of the rows carry 8x the nonzeros of the second half
    — a worst case for naive row splitting, the design case for nnz
    balancing. Both row populations keep enough nonzeros per row that
    the vectorized per-nnz work (not fixed per-row overhead) dominates
    the measured CPU time, so the policy ordering is observable."""
    from repro.formats import COOMatrix, CSRMatrix

    rng = np.random.default_rng(42)
    n = 2000
    hot = n // 2
    rows = [np.repeat(np.arange(hot), 64)]
    cols = [rng.integers(0, n, size=hot * 64)]
    rows.append(np.repeat(np.arange(hot, n), 8))
    cols.append(rng.integers(0, n, size=(n - hot) * 8))
    rows = np.concatenate(rows)
    cols = np.concatenate(cols)
    vals = rng.uniform(0.5, 1.5, size=rows.size)
    return CSRMatrix.from_coo(COOMatrix(rows, cols, vals, (n, n)))


def _median_imbalance(kernel, csr, x, schedule):
    ex = ParallelExecutor(csr, kernel, nthreads=NTHREADS, schedule=schedule)
    ex.apply(x)  # warm up the pool and workspace
    samples = []
    for _ in range(REPEATS):
        ex.apply(x)
        samples.append(ex.last_measurement.imbalance)
    return statistics.median(samples)


@pytest.mark.perf_smoke
def test_balanced_nnz_measured_imbalance_beats_static_rows():
    csr = _skewed()
    x = np.linspace(-1.0, 1.0, csr.ncols)
    kernel = baseline_kernel()
    static = _median_imbalance(kernel, csr, x, "static-rows")
    balanced = _median_imbalance(kernel, csr, x, "balanced-nnz")
    # On this skew, naive row splitting puts ~3x the work on thread 0;
    # nnz balancing should measure near 1.0.
    assert balanced <= static * MARGIN, (
        f"measured CPU imbalance: balanced-nnz {balanced:.3f} vs "
        f"static-rows {static:.3f}"
    )
    assert static > 1.2, (
        f"skewed matrix should measurably imbalance static-rows, "
        f"got {static:.3f}"
    )


@pytest.mark.perf_smoke
def test_parallel_matvec_correct_under_smoke_load():
    csr = _skewed()
    x = np.linspace(-1.0, 1.0, csr.ncols)
    serial = csr.matvec(x)
    ex = ParallelExecutor(csr, baseline_kernel(), nthreads=NTHREADS)
    for _ in range(3):
        np.testing.assert_array_equal(ex.apply(x), serial)
