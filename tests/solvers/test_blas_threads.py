"""Solver results do not depend on the BLAS thread count.

Every n-vector reduction in the single-RHS solver loops runs in
numpy's own one-thread loop (:func:`repro.solvers.base.dot` /
:func:`~repro.solvers.base.norm`), never in BLAS. OpenBLAS splits a
dot product of more than 10,000 elements across its threads, and the
split changes the summation order, so a solver that reduced through
BLAS would follow different iterates at different thread counts.

Each solver runs in two child processes (the thread count is read
when numpy loads BLAS, so it cannot change inside one process): one
with one BLAS thread, one with two. ``poisson2d(128)`` has 16,384
rows, above the threading cutoff. GMRES also runs on ``poisson2d(127)``
(16,129 rows): there a threaded BLAS ``gemv`` for the solution update
``Q^T y`` splits the rows unevenly and changes the last bits of ``x``,
which the even 16,384-row case does not show. Iteration counts,
residual histories and solutions must agree bit for bit.
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import repro

SOLVERS = ("cg", "bicgstab", "cgnr", "gmres", "power_iteration",
           "gmres-127")

_CHILD = """
import sys

import numpy as np

from repro.matrices.generators import poisson2d
from repro.solvers import bicgstab, cg, cgnr, gmres, power_iteration

A = poisson2d(128)
b = np.random.default_rng(2017).standard_normal(A.nrows)
results = {
    "cg": cg(A, b),
    "bicgstab": bicgstab(A, b),
    "cgnr": cgnr(A, b, maxiter=400),
    "gmres": gmres(A, b, restart=30, maxiter=300),
    "power_iteration": power_iteration(A, maxiter=300)[1],
    "gmres-127": gmres(poisson2d(127), b[:127 * 127], restart=30,
                       maxiter=300),
}
arrays = {}
for name, res in results.items():
    arrays[name + ".iterations"] = np.array(res.iterations)
    arrays[name + ".residual_history"] = res.residual_history
    arrays[name + ".x"] = res.x
np.savez(sys.argv[1], **arrays)
"""


def _solve_with_blas_threads(nthreads: int, out: Path):
    src = str(Path(repro.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["OPENBLAS_NUM_THREADS"] = env["OMP_NUM_THREADS"] = str(nthreads)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p
    )
    subprocess.run([sys.executable, "-c", _CHILD, str(out)], env=env,
                   check=True, timeout=300)
    with np.load(out) as data:
        return dict(data)


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("blas_threads")
    return tuple(_solve_with_blas_threads(t, tmp / f"t{t}.npz")
                 for t in (1, 2))


@pytest.mark.parametrize("solver", SOLVERS)
def test_solver_bitwise_equal_across_blas_threads(runs, solver):
    one, two = runs
    for field in ("iterations", "residual_history", "x"):
        key = f"{solver}.{field}"
        np.testing.assert_array_equal(one[key], two[key], err_msg=key)
