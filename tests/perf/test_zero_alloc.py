"""Zero-allocation execution plane: steady-state allocation tracking
and ``out=`` contract tests.

Three layers of guarantees:

* every executed format's (CSR, SELL-C-sigma, BCSR)
  ``matvec``/``matmat``, and CSR's ``rmatvec``, accepts a
  caller-owned ``out=`` buffer, returns it, produces bit-identical
  results to the allocating path, and rejects aliasing/shape/dtype
  violations;
* every kernel variant's ``apply``/``apply_multi`` honors the same
  contract;
* with a warm :class:`repro.memory.Workspace`, a steady-state apply,
  a repeat ``optimize`` plus ``matvec``, and a CG
  iteration allocate no new arrays (verified with ``tracemalloc``:
  zero retained array-sized blocks and a transient peak far below one
  iteration vector). The compiled CSR-family kernels need no scratch
  at all, so their arena stays empty.
"""

import numpy as np
import pytest

from repro.core import AdaptiveSpMV
from repro.experiments.bench_batched import measure_steady_allocs
from repro.formats import CSRMatrix
from repro.formats.bcsr import BCSRMatrix
from repro.formats.sellcs import SellCSigmaMatrix
from repro.kernels import baseline_kernel, merged_pool_kernel
from repro.kernels.bcsr import BCSRSpMV
from repro.kernels.sellcs import SellCSigmaSpMV
from repro.machine import KNC
from repro.matrices.generators import banded, random_uniform
from repro.memory import Workspace
from repro.solvers import cg

N = 400
RNG = np.random.default_rng(77)


def _csr() -> CSRMatrix:
    return random_uniform(N, nnz_per_row=9.0, seed=11)


def _formats():
    """The formats a kernel executes, the only ones with a numeric
    plane."""
    csr = _csr()
    return [
        ("csr", csr),
        ("sellcs", SellCSigmaMatrix.from_csr(csr, chunk=4)),
        ("bcsr", BCSRMatrix.from_csr(csr, block=2)),
    ]


def _kernels():
    return [
        ("csr", baseline_kernel()),
        ("csr+delta", merged_pool_kernel(("compression",))),
        ("csr+split", merged_pool_kernel(("decomposition",))),
        ("sell-4", SellCSigmaSpMV(chunk=4)),
        ("bcsr2x2", BCSRSpMV(block=2)),
    ]


# -- out= contract: formats ---------------------------------------------


@pytest.mark.parametrize("name,mat", _formats())
def test_format_matvec_out_bit_identical(name, mat):
    x = RNG.standard_normal(mat.ncols)
    ref = mat.matvec(x)
    out = np.full(mat.nrows, np.nan)
    got = mat.matvec(x, out=out)
    assert got is out
    assert np.array_equal(ref, got)
    # workspace path must agree too, warm and cold
    ws = Workspace()
    for _ in range(2):
        got_ws = mat.matvec(x, out=out, workspace=ws)
        assert np.array_equal(ref, got_ws)


@pytest.mark.parametrize("name,mat", _formats())
def test_format_matmat_out_bit_identical(name, mat):
    X = RNG.standard_normal((mat.ncols, 3))
    ref = mat.matmat(X)
    out = np.full((mat.nrows, 3), np.nan)
    got = mat.matmat(X, out=out)
    assert got is out
    assert np.array_equal(ref, got)
    ws = Workspace()
    for _ in range(2):
        assert np.array_equal(ref, mat.matmat(X, out=out, workspace=ws))


def test_csr_rmatvec_out_bit_identical():
    csr = _csr()
    x = RNG.standard_normal(csr.nrows)
    ref = csr.rmatvec(x)
    out = np.full(csr.ncols, np.nan)
    assert np.array_equal(ref, csr.rmatvec(x, out=out))


@pytest.mark.parametrize("name,mat", _formats())
def test_format_out_rejects_alias_shape_dtype(name, mat):
    nsquare = mat.nrows == mat.ncols
    x = RNG.standard_normal(mat.ncols)
    if nsquare:
        with pytest.raises(ValueError, match="alias|share"):
            mat.matvec(x, out=x)
    with pytest.raises(ValueError, match="shape"):
        mat.matvec(x, out=np.empty(mat.nrows + 1))
    with pytest.raises(TypeError, match="dtype|float64"):
        mat.matvec(x, out=np.empty(mat.nrows, dtype=np.float32))
    X = RNG.standard_normal((mat.ncols, 2))
    with pytest.raises(ValueError, match="shape"):
        mat.matmat(X, out=np.empty((mat.nrows, 3)))
    with pytest.raises(TypeError, match="dtype|float64"):
        mat.matmat(X, out=np.empty((mat.nrows, 2), dtype=np.float32))


# -- out= contract: kernels ---------------------------------------------


@pytest.mark.parametrize("name,kernel", _kernels())
def test_kernel_apply_out_bit_identical(name, kernel):
    csr = _csr()
    data = kernel.preprocess(csr)
    x = RNG.standard_normal(csr.ncols)
    ref = kernel.apply(data, x)
    out = np.full(csr.nrows, np.nan)
    ws = Workspace()
    got = kernel.apply(data, x, out=out, workspace=ws)
    assert got is out
    assert np.array_equal(ref, got)
    # warm arena, same answer
    assert np.array_equal(ref, kernel.apply(data, x, out=out,
                                            workspace=ws))


@pytest.mark.parametrize("name,kernel", _kernels())
def test_kernel_apply_multi_out_bit_identical(name, kernel):
    csr = _csr()
    data = kernel.preprocess(csr)
    X = RNG.standard_normal((csr.ncols, 3))
    ref = kernel.apply_multi(data, X)
    out = np.full((csr.nrows, 3), np.nan)
    ws = Workspace()
    got = kernel.apply_multi(data, X, out=out, workspace=ws)
    assert got is out
    assert np.array_equal(ref, got)
    assert np.array_equal(ref, kernel.apply_multi(data, X, out=out,
                                                  workspace=ws))


@pytest.mark.parametrize("name,kernel", _kernels())
def test_kernel_out_rejects_shape_mismatch(name, kernel):
    csr = _csr()
    data = kernel.preprocess(csr)
    x = RNG.standard_normal(csr.ncols)
    with pytest.raises(ValueError, match="shape"):
        kernel.apply(data, x, out=np.empty(csr.nrows + 2))
    X = RNG.standard_normal((csr.ncols, 2))
    with pytest.raises(ValueError, match="shape"):
        kernel.apply_multi(data, X, out=np.empty((csr.nrows, 5)))


# -- steady-state allocation tracking -----------------------------------

#: Transient-peak budget for "zero new array allocations": far below
#: one iteration vector (N float64s), generous to tracemalloc's own
#: bookkeeping and interpreter noise.
PEAK_BUDGET = 2048


@pytest.mark.parametrize("name,kernel", _kernels())
def test_kernel_steady_state_allocates_nothing(name, kernel):
    csr = banded(2000, nnz_per_row=8, bandwidth=24, seed=3)
    data = kernel.preprocess(csr)
    x = RNG.standard_normal(csr.ncols)
    y = np.empty(csr.nrows)
    ws = Workspace()
    for _ in range(2):  # warm the arena and any lazy plans
        kernel.apply(data, x, out=y, workspace=ws)
    ws.reset_stats()
    stats = measure_steady_allocs(
        lambda: kernel.apply(data, x, out=y, workspace=ws)
    )
    assert stats["count"] == 0, f"{name}: retained allocations"
    assert stats["peak_bytes"] < PEAK_BUDGET, (
        f"{name}: transient peak {stats['peak_bytes']}B"
    )
    if name.startswith("csr"):
        # The compiled CSR-family kernels ask the arena for nothing.
        assert ws.misses == 0 and ws.nbuffers == 0
    else:
        assert ws.hit_rate == 1.0


def _spd_csr(n: int, seed: int) -> CSRMatrix:
    """Sparse SPD test matrix: A + A^T + 40 I of a banded sample."""
    base = banded(n, nnz_per_row=8, bandwidth=24, seed=seed)
    A = np.zeros((n, n))
    for i in range(n):
        s, e = base.rowptr[i], base.rowptr[i + 1]
        A[i, base.colind[s:e]] += base.values[s:e]
    A = A + A.T
    A[np.arange(n), np.arange(n)] += 40.0
    rowptr = [0]
    cols: list[int] = []
    vals: list[float] = []
    for i in range(n):
        nzi = np.flatnonzero(A[i])
        cols.extend(nzi.tolist())
        vals.extend(A[i, nzi].tolist())
        rowptr.append(len(cols))
    return CSRMatrix(
        np.array(rowptr, dtype=np.int64),
        np.array(cols, dtype=np.int32),
        np.array(vals),
        (n, n),
    )


def test_cg_steady_iteration_allocates_nothing():
    import tracemalloc

    n = 2000
    spd = _spd_csr(n, seed=4)
    b = RNG.standard_normal(n)
    measured = {}

    def callback(k, rnorm):
        # Bracket iterations 3..4: everything is warm by then.
        if k == 3:
            tracemalloc.start()
            measured["snap"] = tracemalloc.take_snapshot()
            measured["cur"] = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
        elif k == 4 and "done" not in measured:
            _, peak = tracemalloc.get_traced_memory()
            after = tracemalloc.take_snapshot()
            tracemalloc.stop()
            measured["done"] = True
            measured["peak"] = max(peak - measured["cur"], 0)
            measured["count"] = sum(
                1
                for st in after.compare_to(measured["snap"], "traceback")
                if st.size_diff >= 4096
            )

    cg(spd, b, tol=1e-12, maxiter=50, callback=callback)
    assert measured.get("done"), "CG converged before iteration 4"
    assert measured["count"] == 0, "CG iteration retained allocations"
    # One CG iteration must not materialize any n-sized vector: allow
    # tracemalloc bookkeeping noise only.
    assert measured["peak"] < n * 8 // 2, (
        f"CG iteration transient peak {measured['peak']}B"
    )


def test_repeat_optimize_execution_allocates_no_arrays():
    csr = banded(1500, nnz_per_row=6, bandwidth=16, seed=9)
    opt = AdaptiveSpMV(KNC, classifier="profile")
    # Warm: plan cache, converted data, workspace arena.
    opt.optimize(csr)
    operator = opt.optimize(csr)
    assert operator.plan.cache_hit
    x = RNG.standard_normal(csr.ncols)
    y = np.empty(csr.nrows)
    operator.matvec(x, out=y)
    operator.matvec(x, out=y)
    operator.workspace.reset_stats()
    stats = measure_steady_allocs(lambda: operator.matvec(x, out=y))
    assert stats["count"] == 0
    assert stats["peak_bytes"] < PEAK_BUDGET
    # The cached plan runs a compiled CSR-family kernel, which asks the
    # arena for nothing.
    assert operator.workspace.misses == 0
    assert operator.workspace.nbuffers == 0
