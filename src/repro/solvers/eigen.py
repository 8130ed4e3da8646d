"""Eigenvalue-flavored iterations (power method, PageRank).

The paper's introduction names "the approximation of eigenvalues of
large sparse matrices" as SpMV's second major consumer; these
SpMV-dominated iterations complete the solver suite and back the
PageRank example.
"""

from __future__ import annotations

import numpy as np

from .base import SolveResult, as_matvec, dot, norm

__all__ = ["power_iteration", "pagerank"]


def power_iteration(
    A,
    x0: np.ndarray | None = None,
    *,
    tol: float = 1e-10,
    maxiter: int = 1000,
    seed: int = 0,
) -> tuple[float, SolveResult]:
    """Dominant eigenvalue/eigenvector by the power method.

    Returns ``(eigenvalue, SolveResult)`` where ``SolveResult.x`` is the
    unit eigenvector estimate and ``residual_norm`` is
    ``||A v - lambda v||``.
    """
    probe = as_matvec(A)
    if maxiter < 1:
        raise ValueError("maxiter must be >= 1")
    if x0 is None:
        # size discovery: require an operator with .shape or a first x0
        n = getattr(A, "shape", (None, None))[0]
        if n is None:
            raise ValueError("x0 required for bare-callable operators")
        x = np.random.default_rng(seed).standard_normal(n)
    else:
        x = np.array(x0, dtype=np.float64, copy=True)
    x /= norm(x)
    lam = 0.0
    history = []
    for k in range(1, maxiter + 1):
        y = probe(x)
        ynorm = norm(y)
        if ynorm == 0.0:
            return 0.0, SolveResult(
                x=x, converged=True, iterations=k, residual_norm=0.0,
                residual_history=np.array(history),
            )
        v = y / ynorm
        lam = dot(x, y)  # Rayleigh quotient (x is unit)
        resid = norm(y - lam * x)
        history.append(resid)
        x = v
        if resid <= tol * max(abs(lam), 1e-300):
            return lam, SolveResult(
                x=x, converged=True, iterations=k, residual_norm=resid,
                residual_history=np.array(history),
            )
    return lam, SolveResult(
        x=x, converged=False, iterations=maxiter,
        residual_norm=history[-1] if history else np.inf,
        residual_history=np.array(history),
    )


def pagerank(
    A,
    nrows: int,
    *,
    damping: float = 0.85,
    tol: float = 1e-10,
    maxiter: int = 500,
    personalization: np.ndarray | None = None,
) -> SolveResult:
    """Power-iteration PageRank on a (column-normalized) operator.

    ``A`` must implement the rank-flow product (``A @ r`` spreads rank
    along in-links); dangling mass and teleportation are folded in as
    the usual uniform correction.

    ``personalization`` biases the teleport step: a ``(nrows,)`` vector
    gives a single personalized ranking, a ``(nrows, k)`` matrix runs
    ``k`` personalized rankings *simultaneously* through the operator's
    batched ``matmat`` plane — one SpMM per power step serves all
    seeds, which is how per-seed ranking services batch their traffic.
    Teleport vectors are normalized to sum 1 per column.
    """
    if not 0.0 < damping < 1.0:
        raise ValueError("damping must be in (0, 1)")
    if personalization is not None:
        return _personalized_pagerank(
            A, nrows, np.asarray(personalization, dtype=np.float64),
            damping=damping, tol=tol, maxiter=maxiter,
        )
    matvec = as_matvec(A)
    rank = np.full(nrows, 1.0 / nrows)
    history = []
    for k in range(1, maxiter + 1):
        new = damping * matvec(rank)
        new += (1.0 - new.sum()) / nrows
        delta = float(np.abs(new - rank).sum())
        history.append(delta)
        rank = new
        if delta <= tol:
            return SolveResult(
                x=rank, converged=True, iterations=k,
                residual_norm=delta, residual_history=np.array(history),
            )
    return SolveResult(
        x=rank, converged=False, iterations=maxiter,
        residual_norm=history[-1], residual_history=np.array(history),
    )


def _personalized_pagerank(A, nrows, teleport, *, damping, tol,
                           maxiter) -> SolveResult:
    """Batched personalized PageRank: one power iteration drives all
    ``k`` teleport distributions through a single ``matmat``."""
    from .base import as_matmat

    single = teleport.ndim == 1
    V = teleport.reshape(nrows, -1).copy()
    if np.any(V < 0.0):
        raise ValueError("personalization must be non-negative")
    sums = V.sum(axis=0)
    if np.any(sums <= 0.0):
        raise ValueError("personalization columns must have positive mass")
    V /= sums
    matmat = as_matmat(A)
    R = V.copy()
    history = []
    for k in range(1, maxiter + 1):
        NEW = damping * matmat(R)
        # Redistribute the lost mass (dangling + teleport) per seed.
        NEW += V * (1.0 - NEW.sum(axis=0))
        delta = np.abs(NEW - R).sum(axis=0)
        history.append(float(delta.max(initial=0.0)))
        R = NEW
        if delta.max(initial=0.0) <= tol:
            return SolveResult(
                x=R[:, 0] if single else R, converged=True,
                iterations=k, residual_norm=history[-1],
                residual_history=np.array(history),
            )
    return SolveResult(
        x=R[:, 0] if single else R, converged=False, iterations=maxiter,
        residual_norm=history[-1], residual_history=np.array(history),
    )
