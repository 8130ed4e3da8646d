"""Micro-benchmarks of the library's own hot paths.

Not a paper artifact: these timings track the *reproduction's* numeric
and simulation throughput (NumPy-vectorized SpMV, delta decode, engine
cost evaluation) so performance regressions in the substrate itself
are visible.
"""

import numpy as np
import pytest

from repro.engine import ExecutorSpec, build_executor
from repro.formats import DeltaCSR
from repro.kernels import baseline_kernel, merged_pool_kernel
from repro.machine import ExecutionEngine, KNL
from repro.matrices import named_matrix
from repro.parallel import ParallelConfig
from repro.pipeline import PipelineRunner


def _parallel(matrix, nthreads, schedule):
    """A bare parallel engine stack over the baseline CSR kernel."""
    return build_executor(matrix, ExecutorSpec(
        parallel=ParallelConfig(nthreads, schedule)))


@pytest.fixture(scope="module")
def matrix():
    return named_matrix("poisson3Db", scale=0.5)


@pytest.fixture(scope="module")
def x(matrix):
    return np.random.default_rng(0).standard_normal(matrix.ncols)


def test_numeric_csr_spmv(benchmark, matrix, x):
    result = benchmark(matrix.matvec, x)
    assert result.shape == (matrix.nrows,)


def test_numeric_delta_decode(benchmark, matrix):
    delta = DeltaCSR.from_csr(matrix)
    colind = benchmark(delta.decode_colind)
    assert colind.size == matrix.nnz


def test_engine_cost_evaluation(benchmark, matrix):
    engine = ExecutionEngine(KNL)
    kernel = baseline_kernel()
    data = kernel.preprocess(matrix)
    result = benchmark(engine.run, kernel, data)
    assert result.gflops > 0


def test_engine_full_optimized_pipeline(benchmark, matrix):
    runner = PipelineRunner(KNL)
    kernel = merged_pool_kernel(("compression", "prefetching"))

    result = benchmark(runner.simulate, kernel, matrix)
    assert result.gflops > 0
    assert "transform" in runner.tracer.stage_names()
    assert "execute" in runner.tracer.stage_names()


@pytest.mark.parametrize("nthreads", [1, 2, 4, 8])
def test_parallel_matvec_throughput(benchmark, matrix, x, nthreads):
    """Real threaded SpMV on the shared-memory pool; the benchmark
    extra-info carries the measured per-thread CPU-time imbalance."""
    op = _parallel(matrix, nthreads, "balanced-nnz")
    out = np.empty(matrix.nrows)
    op.matvec(x, out=out)  # warm the pool and workspace arena

    result = benchmark(op.matvec, x, out=out)
    assert result.shape == (matrix.nrows,)
    m = op.last_measurement
    benchmark.extra_info["nthreads"] = m.nthreads
    benchmark.extra_info["measured_imbalance"] = m.imbalance
    benchmark.extra_info["wall_imbalance"] = m.wall_imbalance


@pytest.mark.parametrize("schedule",
                         ["static-rows", "balanced-nnz", "dynamic"])
def test_parallel_schedule_policies(benchmark, matrix, x, schedule):
    op = _parallel(matrix, 4, schedule)
    out = np.empty(matrix.nrows)
    op.matvec(x, out=out)

    benchmark(op.matvec, x, out=out)
    benchmark.extra_info["schedule"] = schedule
    benchmark.extra_info["measured_imbalance"] = op.last_measurement.imbalance
