"""Restarted GMRES for general systems.

One SpMV per inner iteration, Arnoldi with modified Gram-Schmidt and
Givens-rotation least squares — the second solver family the paper's
amortization argument names (GMRES variants).

The reductions (Arnoldi dots and norms) and the solution update run in
numpy's one-thread loops (:func:`~.base.dot`, ``einsum``), so results
do not depend on the BLAS thread count.
"""

from __future__ import annotations

import numpy as np

from ..memory import Workspace
from .base import (
    SolveResult,
    as_matvec,
    as_matvec_into,
    dot,
    finite_residual,
    identity_preconditioner,
    make_report,
    norm,
)

__all__ = ["gmres"]


def gmres(
    A,
    b: np.ndarray,
    x0: np.ndarray | None = None,
    *,
    tol: float = 1e-8,
    restart: int = 30,
    maxiter: int = 10_000,
    preconditioner=None,
) -> SolveResult:
    """Solve ``A x = b`` with GMRES(restart), left-preconditioned.

    A 2-D ``b`` of shape ``(n, k)`` solves the ``k`` systems column by
    column: each column builds its own Krylov space, so unlike CG /
    BiCGSTAB the Arnoldi process cannot share one batched apply across
    columns. The block form is provided for interface uniformity; the
    result stacks the per-column solutions (``iterations`` sums the
    per-column counts, ``residual_norm`` is the worst column).
    """
    b = np.asarray(b, dtype=np.float64)
    if restart < 1:
        raise ValueError("restart must be >= 1")
    if maxiter < 1:
        raise ValueError("maxiter must be >= 1")
    if b.ndim == 2:
        X0 = None if x0 is None else np.asarray(x0, dtype=np.float64)
        results = [
            gmres(
                A, b[:, j],
                None if X0 is None else X0[:, j],
                tol=tol, restart=restart, maxiter=maxiter,
                preconditioner=preconditioner,
            )
            for j in range(b.shape[1])
        ]
        return SolveResult(
            x=np.column_stack([r.x for r in results])
            if results else np.zeros_like(b),
            converged=all(r.converged for r in results),
            iterations=sum(r.iterations for r in results),
            residual_norm=max(
                (r.residual_norm for r in results), default=0.0
            ),
            residual_history=None,
            report=make_report(
                [r.report.reason for r in results],
                sum(r.report.restarts for r in results),
                all(r.converged for r in results),
            ),
        )
    matvec = as_matvec(A)
    matvec_into = as_matvec_into(A, Workspace())
    M = preconditioner or identity_preconditioner
    identity = M is identity_preconditioner
    n = b.size
    x = (
        np.zeros_like(b)
        if x0 is None
        else np.array(x0, dtype=np.float64, copy=True)
    )
    bnorm = norm(M(b)) or 1.0
    if not np.isfinite(bnorm):
        bnorm = 1.0
    history: list[float] = []
    total_iters = 0
    # Breakdown bookkeeping: x_ref is the last finite iterate; one
    # recovery restart is attempted before reporting the breakdown.
    x_ref = x.copy()
    reason: str | None = None
    recoveries = 0
    # Krylov-cycle storage is preallocated once at the solve's restart
    # width; a (shorter) final cycle uses zero-filled views. The inner
    # Arnoldi loop writes only into these buffers.
    mcap = min(restart, maxiter)
    Qbuf = np.empty((mcap + 1, n))
    Hbuf = np.empty((mcap + 1, mcap))
    csbuf = np.empty(mcap)
    snbuf = np.empty(mcap)
    gbuf = np.empty(mcap + 1)
    w0 = np.empty(n)
    r0 = np.empty(n)
    tmp = np.empty(n)

    while total_iters < maxiter:
        matvec_into(x, tmp)
        np.subtract(b, tmp, out=r0)
        r = r0 if identity else M(r0)
        beta = norm(r)
        if not np.isfinite(beta):
            if not np.isfinite(x).all():
                x = x_ref.copy()
            if recoveries >= 1:
                reason = "non-finite-residual"
                break
            recoveries += 1
            continue  # retry once from the last finite iterate
        x_ref = x.copy()
        if not history:
            history.append(beta)
        if beta <= tol * bnorm:
            return SolveResult(
                x=x, converged=True, iterations=total_iters,
                residual_norm=beta, residual_history=np.array(history),
                report=make_report([], recoveries, True),
            )
        m = min(restart, maxiter - total_iters)
        Q = Qbuf[: m + 1]
        H = Hbuf[: m + 1, :m]
        cs = csbuf[:m]
        sn = snbuf[:m]
        g = gbuf[: m + 1]
        Q.fill(0.0)
        H.fill(0.0)
        cs.fill(0.0)
        sn.fill(0.0)
        g.fill(0.0)
        g[0] = beta
        np.divide(r, beta, out=Q[0])

        k_done = 0
        arnoldi_broke = False
        for k in range(m):
            matvec_into(Q[k], w0)
            w = w0 if identity else M(w0)
            # Modified Gram-Schmidt (fused: w -= H[i,k] * Q[i])
            for i in range(k + 1):
                H[i, k] = dot(w, Q[i])
                np.multiply(Q[i], H[i, k], out=tmp)
                np.subtract(w, tmp, out=w)
            H[k + 1, k] = norm(w)
            if not np.isfinite(H[k + 1, k]):
                # Non-finite Arnoldi vector: discard this column and
                # fall through to the (finite) partial update below.
                arnoldi_broke = True
                break
            if H[k + 1, k] > 1e-14:
                np.divide(w, H[k + 1, k], out=Q[k + 1])
            # Apply existing Givens rotations to the new column.
            for i in range(k):
                t = cs[i] * H[i, k] + sn[i] * H[i + 1, k]
                H[i + 1, k] = -sn[i] * H[i, k] + cs[i] * H[i + 1, k]
                H[i, k] = t
            # New rotation to annihilate H[k+1, k].
            denom = float(np.hypot(H[k, k], H[k + 1, k])) or 1e-300
            cs[k] = H[k, k] / denom
            sn[k] = H[k + 1, k] / denom
            H[k, k] = denom
            H[k + 1, k] = 0.0
            g[k + 1] = -sn[k] * g[k]
            g[k] = cs[k] * g[k]
            k_done = k + 1
            total_iters += 1
            rnorm = abs(float(g[k + 1]))
            history.append(rnorm)
            if rnorm <= tol * bnorm:
                break

        # Solve the small triangular system and update x (einsum, not
        # a BLAS gemv: one thread, same bits at any BLAS thread count).
        y = np.linalg.solve(
            H[:k_done, :k_done], g[:k_done]
        ) if k_done else np.zeros(0)
        x = x + np.einsum("ki,k->i", Q[:k_done], y)
        if np.isfinite(x).all():
            x_ref = x.copy()
        if arnoldi_broke:
            if recoveries >= 1:
                reason = "non-finite-residual"
                break
            recoveries += 1
            x = x_ref.copy()
            continue  # retry once from the last finite iterate
        if history[-1] <= tol * bnorm:
            final = norm(M(b - matvec(x)))
            return SolveResult(
                x=x, converged=final <= tol * bnorm * 10.0,
                iterations=total_iters, residual_norm=final,
                residual_history=np.array(history),
                report=make_report([], recoveries,
                                   final <= tol * bnorm * 10.0),
            )

    if not np.isfinite(x).all():
        x = x_ref
    final = norm(M(b - matvec(x)))
    if not np.isfinite(final):
        reason = reason or "non-finite-residual"
        final = finite_residual(history)
    converged = final <= tol * bnorm and reason is None
    return SolveResult(
        x=x, converged=converged, iterations=total_iters,
        residual_norm=final, residual_history=np.array(history),
        report=make_report([reason] if reason else [], recoveries,
                           converged),
    )
