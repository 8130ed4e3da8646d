"""Solvers through the parallel plane: bit-identical residual history.

A parallel engine stack (``build_executor`` with a ``ParallelConfig``)
exposes the ``matvec(x, out=, workspace=)`` surface
that :func:`repro.solvers.base.as_matvec_into` probes, so CG/GMRES run
their hot-loop matvecs on the thread pool with zero solver changes.
Because chunked execution preserves the serial reduction order, the
iterates — and therefore every recorded residual — must match the
serial solve bit for bit.
"""

import numpy as np
import pytest

from repro.engine import ExecutorSpec, build_executor
from repro.parallel import ParallelConfig
from repro.solvers import cg, gmres


def _parallel(csr, nthreads, schedule="balanced-nnz"):
    return build_executor(csr, ExecutorSpec(
        parallel=ParallelConfig(nthreads, schedule)))


@pytest.fixture(scope="module")
def spd():
    from repro.matrices.generators import poisson2d

    return poisson2d(24)


@pytest.fixture(scope="module")
def rhs(spd, rng):
    return rng.standard_normal(spd.nrows)


@pytest.mark.parametrize("nthreads", [2, 4])
def test_cg_residuals_bit_identical(spd, rhs, nthreads):
    serial = cg(spd, rhs, tol=1e-10, maxiter=400)
    par = cg(_parallel(spd, nthreads), rhs,
             tol=1e-10, maxiter=400)
    assert par.converged == serial.converged
    assert par.iterations == serial.iterations
    np.testing.assert_array_equal(par.x, serial.x)
    np.testing.assert_array_equal(
        np.asarray(par.residual_history),
        np.asarray(serial.residual_history),
    )


@pytest.mark.parametrize("nthreads", [2, 4])
def test_gmres_residuals_bit_identical(spd, rhs, nthreads):
    serial = gmres(spd, rhs, tol=1e-10, restart=20, maxiter=200)
    par = gmres(_parallel(spd, nthreads), rhs,
                tol=1e-10, restart=20, maxiter=200)
    assert par.converged == serial.converged
    assert par.iterations == serial.iterations
    np.testing.assert_array_equal(par.x, serial.x)
    np.testing.assert_array_equal(
        np.asarray(par.residual_history),
        np.asarray(serial.residual_history),
    )


def test_cg_dynamic_schedule_identical(spd, rhs):
    serial = cg(spd, rhs, tol=1e-10, maxiter=400)
    par = cg(_parallel(spd, 3, "dynamic"), rhs,
             tol=1e-10, maxiter=400)
    np.testing.assert_array_equal(
        np.asarray(par.residual_history),
        np.asarray(serial.residual_history),
    )
