"""BiCGSTAB for general (non-symmetric) systems.

Two SpMVs per iteration; used by the examples for the non-SPD
matrices in the suite (circuit and graph matrices).

The hot loop is fused like :mod:`repro.solvers.cg`: all iteration
vectors are preallocated, the SpMVs write through the operator's
``out=`` plane, and the recurrences run in place with the exact
elementwise operation sequence of the allocating formulation, so the
steady state allocates nothing. The reductions run in numpy's
one-thread loop (:func:`~.base.dot`), so results do not depend on the
BLAS thread count.
"""

from __future__ import annotations

import numpy as np

from ..memory import Workspace
from .base import (
    SolveResult,
    as_matmat_into,
    as_matvec_into,
    columnwise,
    dot,
    finite_residual,
    identity_preconditioner,
    make_report,
    norm,
)

__all__ = ["bicgstab"]


def bicgstab(
    A,
    b: np.ndarray,
    x0: np.ndarray | None = None,
    *,
    tol: float = 1e-8,
    maxiter: int = 10_000,
    preconditioner=None,
) -> SolveResult:
    """Solve ``A x = b`` with van der Vorst's stabilized BiCG.

    A 2-D ``b`` of shape ``(n, k)`` solves all ``k`` systems at once
    with two batched ``matmat`` applications per iteration.

    Breakdowns (``rho``/``omega`` collapse, zero ``r_hat @ v``, a
    non-finite residual) trigger one restart from the last finite
    iterate; if the restart breaks down too, the result carries
    ``report.breakdown=True`` with the reason — and ``x`` stays the
    last finite iterate, never NaN garbage.
    """
    b = np.asarray(b, dtype=np.float64)
    if maxiter < 1:
        raise ValueError("maxiter must be >= 1")
    if b.ndim == 2:
        return _block_bicgstab(A, b, x0, tol=tol, maxiter=maxiter,
                               preconditioner=preconditioner)
    matvec_into = as_matvec_into(A, Workspace())
    M = preconditioner or identity_preconditioner
    identity = M is identity_preconditioner
    x = (
        np.zeros_like(b)
        if x0 is None
        else np.array(x0, dtype=np.float64, copy=True)
    )
    x_init = x.copy()  # pristine fallback for breakdown recovery
    bnorm = norm(b) or 1.0
    history: list[float] = []
    # Preallocated iteration vectors; the sweep below only writes into
    # these (plus whatever a non-identity preconditioner returns).
    r = np.empty_like(b)
    r_hat = np.empty_like(b)
    v = np.empty_like(b)
    p = np.empty_like(b)
    s = np.empty_like(b)
    t = np.empty_like(b)
    tmp = np.empty_like(b)

    def restore(x):
        if np.isfinite(x_init).all():
            np.copyto(x, x_init)
        else:
            x.fill(0.0)
        return x

    def sweep(x, budget):
        """One BiCGSTAB sweep, updating ``x`` in place; returns
        (x, converged, iters, reason)."""
        if x.any():
            matvec_into(x, tmp)
            np.subtract(b, tmp, out=r)
        else:
            np.copyto(r, b)
        rnorm = norm(r)
        history.append(rnorm)
        if not np.isfinite(rnorm):
            return x, False, 0, "non-finite-residual"
        if rnorm <= tol * bnorm:
            return x, True, 0, None
        np.copyto(r_hat, r)
        rho = alpha = omega = 1.0
        v.fill(0.0)
        p.fill(0.0)
        for k in range(1, budget + 1):
            rho_new = dot(r_hat, r)
            if not np.isfinite(rho_new):
                return x, False, k - 1, "non-finite-residual"
            if rho_new == 0.0:
                return x, False, k - 1, "rho-breakdown"
            if omega == 0.0:
                return x, False, k - 1, "omega-breakdown"
            beta = (rho_new / rho) * (alpha / omega)
            rho = rho_new
            np.multiply(v, omega, out=tmp)      # p = r + beta*(p - omega*v)
            np.subtract(p, tmp, out=p)
            np.multiply(p, beta, out=p)
            np.add(r, p, out=p)
            phat = p if identity else M(p)
            matvec_into(phat, v)
            denom = dot(r_hat, v)
            if not np.isfinite(denom):
                return x, False, k - 1, "non-finite-residual"
            if denom == 0.0:
                return x, False, k - 1, "rhat-v-breakdown"
            alpha = rho / denom
            np.multiply(v, alpha, out=tmp)      # s = r - alpha * v
            np.subtract(r, tmp, out=s)
            snorm = norm(s)
            if not np.isfinite(snorm):
                return x, False, k - 1, "non-finite-residual"
            if snorm <= tol * bnorm:
                np.multiply(phat, alpha, out=tmp)   # x += alpha * phat
                np.add(x, tmp, out=x)
                history.append(snorm)
                return x, True, k, None
            shat = s if identity else M(s)
            matvec_into(shat, t)
            tt = dot(t, t)
            if not np.isfinite(tt):
                return x, False, k - 1, "non-finite-residual"
            if tt == 0.0:
                return x, False, k - 1, "omega-breakdown"
            omega = dot(t, s) / tt
            np.multiply(phat, alpha, out=tmp)   # x += alpha*phat + omega*shat
            np.add(x, tmp, out=x)
            np.multiply(shat, omega, out=tmp)
            np.add(x, tmp, out=x)
            np.multiply(t, omega, out=tmp)      # r = s - omega * t
            np.subtract(s, tmp, out=r)
            rnorm = norm(r)
            history.append(rnorm)
            if not np.isfinite(rnorm):
                return x, False, k, "non-finite-residual"
            if rnorm <= tol * bnorm:
                return x, True, k, None
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


def _block_bicgstab(A, B, X0, *, tol, maxiter, preconditioner) -> SolveResult:
    """Multi-RHS BiCGSTAB with per-column scalar recurrences.

    Mirrors the single-RHS iteration column by column; converged and
    broken-down columns are frozen (zero step, zeroed direction) while
    the active ones share the two batched ``matmat`` calls per step.
    The mid-step early exit (``||s||`` small) freezes the column after
    the half-update, exactly like the scalar code path. Columns whose
    recurrences go non-finite are frozen at their last finite iterate
    and the aggregate breakdown is reported in ``report``.

    All ``(n, k)`` iteration blocks are preallocated and updated in
    place; per-step allocations are limited to O(k) control vectors.
    """
    matmat_into = as_matmat_into(A, Workspace())
    M = columnwise(preconditioner or identity_preconditioner)
    identity = M is identity_preconditioner
    n, k = B.shape
    X = (
        np.zeros_like(B)
        if X0 is None
        else np.array(X0, dtype=np.float64, copy=True).reshape(n, k)
    )
    R = np.empty_like(B)
    R_hat = np.empty_like(B)
    S = np.empty_like(B)
    T = np.empty_like(B)
    tmp = np.empty_like(B)
    tmp2 = np.empty_like(B)
    if X.any():
        matmat_into(X, tmp)
        np.subtract(B, tmp, out=R)
    else:
        np.copyto(R, B)
    np.copyto(R_hat, R)
    rho = np.ones(k)
    alpha = np.ones(k)
    omega = np.ones(k)
    V = np.zeros_like(B)
    P = np.zeros_like(B)
    bnorm = np.linalg.norm(B, axis=0)
    bnorm[bnorm == 0.0] = 1.0
    rnorm = np.linalg.norm(R, axis=0)
    history = [rnorm.copy()]
    converged = rnorm <= tol * bnorm
    active = ~converged
    iterations = 0
    reasons: list[str] = []

    def drop(mask, reason):
        """Freeze ``mask`` columns, recording why."""
        nonlocal active
        if mask.any():
            reasons.append(reason)
            active = active & ~mask

    for it in range(1, maxiter + 1):
        if not active.any():
            break
        rho_new = np.einsum("ij,ij->j", R_hat, R)
        drop(active & ~np.isfinite(rho_new), "non-finite-residual")
        drop(active & (rho_new == 0.0), "rho-breakdown")
        drop(active & (omega == 0.0), "omega-breakdown")
        if not active.any():
            break
        beta = np.where(
            active,
            (rho_new / np.where(rho != 0.0, rho, 1.0))
            * (alpha / np.where(omega != 0.0, omega, 1.0)),
            0.0,
        )
        rho = np.where(active, rho_new, rho)
        np.multiply(V, omega, out=tmp)   # P = R + beta * (P - omega * V)
        np.subtract(P, tmp, out=P)
        np.multiply(P, beta, out=P)
        np.add(R, P, out=P)
        P[:, ~active] = 0.0
        Phat = P if identity else M(P)
        matmat_into(Phat, V)
        denom = np.einsum("ij,ij->j", R_hat, V)
        drop(active & ~np.isfinite(denom), "non-finite-residual")
        drop(active & np.isfinite(denom) & (denom == 0.0),
             "rhat-v-breakdown")
        # Zero frozen columns so 0 * NaN cannot leak into X/R below.
        V[:, ~active] = 0.0
        alpha = np.where(
            active, rho / np.where(denom != 0.0, denom, 1.0), 0.0
        )
        np.multiply(V, alpha, out=tmp)          # S = R - alpha * V
        np.subtract(R, tmp, out=S)
        snorm = np.linalg.norm(S, axis=0)
        drop(active & ~np.isfinite(snorm), "non-finite-residual")
        # Mid-step convergence: take the half update and freeze.
        half = active & (snorm <= tol * bnorm)
        np.multiply(Phat, np.where(half, alpha, 0.0), out=tmp)
        np.add(X, tmp, out=X)
        converged = converged | half
        active = active & ~half
        S[:, ~active] = 0.0
        Shat = S if identity else M(S)
        matmat_into(Shat, T)
        tt = np.einsum("ij,ij->j", T, T)
        drop(active & ~np.isfinite(tt), "non-finite-residual")
        drop(active & np.isfinite(tt) & (tt == 0.0), "omega-breakdown")
        T[:, ~active] = 0.0
        omega = np.where(
            active,
            np.einsum("ij,ij->j", T, S) / np.where(tt != 0.0, tt, 1.0),
            0.0,
        )
        step = np.where(active, alpha, 0.0)
        np.multiply(Phat, step, out=tmp)  # X += step*Phat + omega*Shat
        np.multiply(Shat, omega, out=tmp2)
        np.add(tmp, tmp2, out=tmp)
        np.add(X, tmp, out=X)
        np.multiply(T, omega, out=tmp)    # R = where(active, S - omega*T, R)
        np.subtract(S, tmp, out=tmp)
        np.copyto(R, tmp, where=active)
        rnorm = np.where(active, np.linalg.norm(R, axis=0), history[-1])
        rnorm = np.where(half, snorm, rnorm)
        drop(active & ~np.isfinite(rnorm), "non-finite-residual")
        history.append(rnorm.copy())
        iterations = it
        newly = active & (rnorm <= tol * bnorm)
        converged = converged | newly
        active = active & ~newly

    final = history[-1]
    final = final[np.isfinite(final)]
    all_converged = bool(converged.all())
    return SolveResult(
        x=X, converged=all_converged, iterations=iterations,
        residual_norm=float(final.max(initial=0.0)),
        residual_history=np.array(history),
        report=make_report(reasons, 0, all_converged),
    )
