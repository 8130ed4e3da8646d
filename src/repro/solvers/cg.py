"""Preconditioned Conjugate Gradient (for SPD systems).

One SpMV per iteration — the solver the paper's amortization analysis
names first. Standard PCG with the Hestenes-Stiefel recurrences.

The hot loop is fused: every iteration vector is preallocated outside
the sweep, the SpMV writes through the operator's ``out=`` plane into a
reused buffer, and the axpy updates run in place
(``np.multiply``/``np.add(..., out=)``), so a steady-state iteration
performs zero new array allocations. The sweep keeps four n-vectors
(``r``, ``p``, ``Ap`` and ``x``): ``Ap`` is scaled in place for the
residual update and then serves as scratch for the ``x`` update.
Every element still gets the textbook recurrence's IEEE operations.

The reductions run in numpy's one-thread loop (:func:`~.base.dot`),
one ``r . r`` per iteration serving both the residual norm and, under
the identity preconditioner, ``r . z``. Results therefore do not
depend on the BLAS thread count, and a solve on a parallel operator
equals the serial solve bitwise.
"""

from __future__ import annotations

import math

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

__all__ = ["cg"]


def cg(
    A,
    b: np.ndarray,
    x0: np.ndarray | None = None,
    *,
    tol: float = 1e-8,
    maxiter: int = 10_000,
    preconditioner=None,
    callback=None,
) -> SolveResult:
    """Solve ``A x = b`` for SPD ``A``.

    Convergence criterion: ``||r||_2 <= tol * ||b||_2``.

    A 2-D ``b`` of shape ``(n, k)`` solves all ``k`` systems
    simultaneously through the operator's batched ``matmat`` plane
    (one SpMM per iteration instead of ``k`` SpMVs); the result's
    ``x`` / ``residual_history`` are then column-blocked too.

    ``callback(k, rnorm)`` — when given — is invoked after every inner
    iteration of the single-RHS path with the 1-based iteration number
    and the current residual norm (used e.g. by the allocation-tracking
    perf tests to bracket one steady-state iteration).

    Breakdowns (indefinite operator, non-finite residual) trigger one
    restart from the last finite iterate; if the restart breaks down
    too, the result carries ``report.breakdown=True`` with the reason —
    and ``x`` stays the last finite iterate, never NaN garbage.
    """
    b = np.asarray(b, dtype=np.float64)
    if maxiter < 1:
        raise ValueError("maxiter must be >= 1")
    if b.ndim == 2:
        return _block_cg(A, b, x0, tol=tol, maxiter=maxiter,
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
    # Every iteration vector lives outside the sweep; the loop below
    # touches only these buffers.
    r = np.empty_like(b)
    p = np.empty_like(b)
    Ap = np.empty_like(b)

    def restore(x):
        """Reset ``x`` to the pristine start iterate (or zero)."""
        if np.isfinite(x_init).all():
            np.copyto(x, x_init)
        else:
            x.fill(0.0)
        return x

    def sweep(x, budget):
        """One CG sweep, updating ``x`` in place; returns
        (x, converged, iterations, reason)."""
        if x.any():
            matvec_into(x, Ap)
            np.subtract(b, Ap, out=r)
        else:
            np.copyto(r, b)
        rr = dot(r, r)
        rnorm = math.sqrt(rr)
        history.append(rnorm)
        if not np.isfinite(rnorm):
            return x, False, 0, "non-finite-residual"
        if rnorm <= tol * bnorm:
            return x, True, 0, None
        z = r if identity else M(r)
        np.copyto(p, z)
        rz = rr if identity else dot(r, z)
        for k in range(1, budget + 1):
            matvec_into(p, Ap)
            pAp = dot(p, Ap)
            if not np.isfinite(pAp):
                return x, False, k - 1, "non-finite-residual"
            if pAp <= 0:
                # Not SPD (or breakdown): stop with what we have.
                return x, False, k - 1, "indefinite-operator"
            alpha = rz / pAp
            np.multiply(Ap, alpha, out=Ap)      # r -= alpha * Ap
            np.subtract(r, Ap, out=r)
            np.multiply(p, alpha, out=Ap)       # x += alpha * p
            np.add(x, Ap, out=x)
            rr = dot(r, r)
            rnorm = math.sqrt(rr)
            history.append(rnorm)
            if callback is not None:
                callback(k, rnorm)
            if not np.isfinite(rnorm):
                return x, False, k, "non-finite-residual"
            if rnorm <= tol * bnorm:
                return x, True, k, None
            z = r if identity else M(r)
            rz_new = rr if identity else dot(r, z)
            beta = rz_new / rz
            rz = rz_new
            np.multiply(p, beta, out=p)         # p = z + beta * p
            np.add(z, p, out=p)
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


def _block_cg(A, B, X0, *, tol, maxiter, preconditioner) -> SolveResult:
    """Multi-RHS CG: the scalar recurrences become per-column arrays.

    Each column follows exactly the single-RHS iteration; columns that
    converge (or break down on a non-SPD direction or a non-finite
    residual) are frozen via a zero step length and a zeroed search
    direction, so the remaining active columns keep iterating with one
    batched ``matmat`` per step. Broken columns keep their last finite
    iterate and the aggregate breakdown is reported in ``report``.

    All ``(n, k)`` iteration blocks are preallocated and updated in
    place; the per-step allocations are limited to O(k) control
    vectors (step lengths, norms, masks).
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
    P = np.empty_like(B)
    AP = np.empty_like(B)
    if X.any():
        matmat_into(X, AP)
        np.subtract(B, AP, out=R)
    else:
        np.copyto(R, B)
    Z = R if identity else M(R)
    np.copyto(P, Z)
    rz = np.einsum("ij,ij->j", R, Z)
    bnorm = np.linalg.norm(B, axis=0)
    bnorm[bnorm == 0.0] = 1.0
    rnorm = np.linalg.norm(R, axis=0)
    history = [rnorm.copy()]
    converged = rnorm <= tol * bnorm
    active = ~converged
    iterations = 0
    reasons: list[str] = []

    for it in range(1, maxiter + 1):
        if not active.any():
            break
        matmat_into(P, AP)
        pAp = np.einsum("ij,ij->j", P, AP)
        # Non-finite and non-SPD columns stop with what they have.
        nonfinite = active & ~np.isfinite(pAp)
        indefinite = active & np.isfinite(pAp) & (pAp <= 0.0)
        if nonfinite.any():
            reasons.append("non-finite-residual")
        if indefinite.any():
            reasons.append("indefinite-operator")
        active = active & ~nonfinite & ~indefinite
        # Poisoned AP columns are zeroed so frozen columns cannot leak
        # NaN into X/R through a 0 * NaN product.
        AP[:, nonfinite] = 0.0
        safe = np.where(np.isfinite(pAp) & (pAp != 0.0), pAp, 1.0)
        alpha = np.where(active, rz / safe, 0.0)
        np.multiply(AP, alpha, out=AP)          # R -= alpha * AP
        np.subtract(R, AP, out=R)
        np.multiply(P, alpha, out=AP)           # X += alpha * P
        np.add(X, AP, out=X)
        rnorm = np.linalg.norm(R, axis=0)
        stray = active & ~np.isfinite(rnorm)
        if stray.any():
            reasons.append("non-finite-residual")
            active = active & ~stray
        history.append(rnorm.copy())
        iterations = it
        newly = active & (rnorm <= tol * bnorm)
        converged = converged | newly
        active = active & ~newly
        if not active.any():
            break
        Z = R if identity else M(R)
        rz_new = np.einsum("ij,ij->j", R, Z)
        safe_rz = np.where(rz != 0.0, rz, 1.0)
        beta = np.where(active, rz_new / safe_rz, 0.0)
        rz = np.where(active, rz_new, rz)
        np.multiply(P, beta, out=P)             # P = Z + beta * P
        np.add(Z, P, out=P)
        P[:, ~active] = 0.0

    final = history[-1]
    final = final[np.isfinite(final)]
    all_converged = bool(converged.all())
    return SolveResult(
        x=X, converged=all_converged, iterations=iterations,
        residual_norm=float(final.max(initial=0.0)),
        residual_history=np.array(history),
        report=make_report(reasons, 0, all_converged),
    )
