"""CGNR — conjugate gradient on the normal equations.

Solves the least-squares problem ``min ||A x - b||_2`` by running CG on
``A^T A x = A^T b`` without ever forming ``A^T A``: each iteration is
one ``matvec`` and one ``rmatvec``, i.e. two SpMV-shaped passes — the
rectangular-system counterpart of the paper's iterative-solver context
(LP matrices like *degme* are rectangular in the wild).
"""

from __future__ import annotations

import numpy as np

from ..memory import Workspace
from .base import (
    SolveResult,
    dot,
    finite_residual,
    into_adapter,
    make_report,
    norm,
)

__all__ = ["cgnr"]


def cgnr(
    A,
    b: np.ndarray,
    x0: np.ndarray | None = None,
    *,
    tol: float = 1e-8,
    maxiter: int = 10_000,
) -> SolveResult:
    """Solve ``min ||A x - b||`` for an operator with matvec/rmatvec.

    Convergence criterion: ``||A^T r||_2 <= tol * ||A^T b||_2`` (the
    normal-equation residual, the quantity CGNR actually drives down).

    Breakdowns (zero search direction, non-finite residual) trigger one
    restart from the last finite iterate; if that breaks down too, the
    result carries ``report.breakdown=True`` with the reason — and
    ``x`` stays the last finite iterate, never NaN garbage.
    """
    if not (hasattr(A, "matvec") and hasattr(A, "rmatvec")):
        raise TypeError("A must provide matvec and rmatvec")
    if maxiter < 1:
        raise ValueError("maxiter must be >= 1")
    b = np.asarray(b, dtype=np.float64)
    nrows, ncols = A.shape
    if b.shape != (nrows,):
        raise ValueError(f"b must have shape ({nrows},), got {b.shape}")
    x = (
        np.zeros(ncols)
        if x0 is None
        else np.array(x0, dtype=np.float64, copy=True)
    )
    x_init = x.copy()  # pristine fallback for breakdown recovery
    workspace = Workspace()
    matvec_into = into_adapter(A.matvec, workspace)
    rmatvec_into = into_adapter(A.rmatvec, workspace)
    # Preallocated iteration vectors: row-space (nrows) and
    # column-space (ncols) buffers; the sweep writes only into these.
    r = np.empty(nrows)
    w = np.empty(nrows)
    tmp_r = np.empty(nrows)
    z = np.empty(ncols)
    p = np.empty(ncols)
    tmp_c = np.empty(ncols)
    rmatvec_into(b, z)
    z0n = norm(z)
    z0 = z0n if np.isfinite(z0n) and z0n > 0.0 else 1.0
    history: list[float] = []

    def restore(x):
        if np.isfinite(x_init).all():
            np.copyto(x, x_init)
        else:
            x.fill(0.0)
        return x

    def sweep(x, budget):
        """One CGNR sweep, updating ``x`` in place; returns
        (x, converged, iterations, reason)."""
        if x.any():
            matvec_into(x, w)
            np.subtract(b, w, out=r)
        else:
            np.copyto(r, b)
        rmatvec_into(r, z)            # normal-equation residual
        zz = dot(z, z)
        history.append(float(np.sqrt(abs(zz))))
        if not np.isfinite(zz):
            return x, False, 0, "non-finite-residual"
        if history[-1] <= tol * z0:
            return x, True, 0, None
        np.copyto(p, z)
        for k in range(1, budget + 1):
            matvec_into(p, w)
            ww = dot(w, w)
            if not np.isfinite(ww):
                return x, False, k - 1, "non-finite-residual"
            if ww == 0.0:
                return x, False, k - 1, "zero-direction"
            alpha = zz / ww
            np.multiply(p, alpha, out=tmp_c)    # x += alpha * p
            np.add(x, tmp_c, out=x)
            np.multiply(w, alpha, out=tmp_r)    # r -= alpha * w
            np.subtract(r, tmp_r, out=r)
            rmatvec_into(r, z)
            zz_new = dot(z, z)
            history.append(float(np.sqrt(abs(zz_new))))
            if not np.isfinite(zz_new):
                return x, False, k, "non-finite-residual"
            if history[-1] <= tol * z0:
                return x, True, k, None
            np.multiply(p, zz_new / zz, out=tmp_c)  # p = z + beta * p
            np.add(z, tmp_c, out=p)
            zz = zz_new
        return x, False, budget, None

    x1, converged, used, reason = sweep(x, maxiter)
    reasons = [reason]
    restarts = 0
    if reason is not None and used < maxiter:
        # One recovery attempt from the last finite iterate.
        restarts = 1
        if not np.isfinite(x1).all():
            x1 = restore(x1)
        x1, converged, used2, reason2 = sweep(x1, maxiter - used)
        used += used2
        reasons.append(reason2)
    if not np.isfinite(x1).all():
        x1 = restore(x1)

    return SolveResult(
        x=x1, converged=converged, iterations=used,
        residual_norm=finite_residual(history),
        residual_history=np.array(history),
        report=make_report(reasons, restarts, converged),
    )
