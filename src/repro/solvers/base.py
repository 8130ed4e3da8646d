"""Common infrastructure for the iterative solvers (system S9).

The solvers accept anything with a ``matvec(x) -> y`` method (the
executed :mod:`repro.formats` matrices, CSR, BCSR and SELL-C-sigma;
:class:`repro.core.OptimizedSpMV`; an engine stack) or a bare callable, so the same CG/GMRES code runs on the baseline and on
optimizer-produced operators — which is how the examples demonstrate
end-to-end solver acceleration.

Solvers also take a 2-D block of right-hand sides: ``b`` of shape
``(n, k)`` solves all ``k`` systems at once through the operator's
batched ``matmat`` plane (see :func:`as_matmat`), amortizing matrix
traffic over the whole block.

The single-RHS loops reduce n-vectors through :func:`dot` and
:func:`norm`, never through BLAS, so their results do not depend on
the BLAS thread count.
"""

from __future__ import annotations

import inspect
import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

__all__ = [
    "SolveResult",
    "SolverReport",
    "as_matvec",
    "as_matmat",
    "as_matvec_into",
    "as_matmat_into",
    "into_adapter",
    "columnwise",
    "identity_preconditioner",
    "dot",
    "norm",
]


def dot(a: np.ndarray, b: np.ndarray) -> float:
    """``a @ b`` for two n-vectors, on one thread.

    ``einsum`` with its default ``optimize=False`` runs numpy's own
    sum-of-products loop and never calls BLAS. OpenBLAS splits a dot
    over 10,000 elements across its threads: between SpMVs that costs
    a thread wake-up per call, and the split changes the summation
    order, so the result's last bits follow the BLAS thread count.
    """
    return float(np.einsum("i,i->", a, b))


def norm(a: np.ndarray) -> float:
    """``||a||_2`` through :func:`dot`."""
    return math.sqrt(dot(a, a))


@dataclass(frozen=True)
class SolverReport:
    """Structured breakdown diagnostics attached to a solve.

    ``breakdown`` is true when the final sweep ended in a numerical
    breakdown (non-finite residual, indefinite operator, rho/omega
    collapse, ...) rather than plain non-convergence; ``reason`` names
    the last breakdown observed and ``restarts`` counts the recovery
    restarts that were attempted. A breakdown result still carries the
    last *finite* iterate in ``SolveResult.x`` — never NaN garbage.
    """

    breakdown: bool = False
    reason: str | None = None
    restarts: int = 0

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        if not self.breakdown and self.reason is None:
            return "ok"
        state = "breakdown" if self.breakdown else "recovered"
        return f"{state}({self.reason}, restarts={self.restarts})"


@dataclass(frozen=True)
class SolveResult:
    """Outcome of an iterative solve."""

    x: np.ndarray
    converged: bool
    iterations: int
    residual_norm: float
    residual_history: np.ndarray = field(repr=False, default=None)
    report: SolverReport = field(default_factory=SolverReport)

    @property
    def breakdown(self) -> bool:
        """Did the solve end in a numerical breakdown? (see
        :class:`SolverReport`)"""
        return self.report.breakdown

    @property
    def spmv_count(self) -> int:
        """SpMV invocations performed (== iterations for CG/GMRES,
        2x for BiCGSTAB)."""
        return self.iterations


def finite_residual(history) -> float:
    """The most recent finite residual norm in ``history`` (``inf`` if
    none) — breakdown results must not report NaN norms."""
    for h in reversed(history):
        if np.isfinite(h):
            return float(h)
    return float("inf")


def make_report(reasons, restarts: int = 0,
                converged: bool = False) -> SolverReport:
    """Build a :class:`SolverReport` from the breakdown reasons seen.

    ``reasons`` is an ordered sequence (later entries are more recent);
    a solve that ultimately converged reports ``breakdown=False`` even
    if a restart recovered from an earlier breakdown (the reason is
    kept as a diagnostic).
    """
    reasons = [r for r in reasons if r]
    reason = reasons[-1] if reasons else None
    return SolverReport(
        breakdown=bool(reasons) and not converged,
        reason=reason,
        restarts=restarts,
    )


def as_matvec(operator) -> Callable[[np.ndarray], np.ndarray]:
    """Normalize an operator to a ``matvec`` callable."""
    if callable(operator) and not hasattr(operator, "matvec"):
        return operator
    if hasattr(operator, "matvec"):
        return operator.matvec
    raise TypeError(
        f"operator must be callable or have .matvec, got {type(operator)!r}"
    )


def as_matmat(operator) -> Callable[[np.ndarray], np.ndarray]:
    """Normalize an operator to a batched ``matmat(X) -> Y`` callable.

    Operators exposing ``matmat`` (all formats, ``OptimizedSpMV``) use
    their native batched plane; bare callables and matvec-only objects
    fall back to stacking one ``matvec`` per column.
    """
    if hasattr(operator, "matmat"):
        return operator.matmat
    matvec = as_matvec(operator)

    def stacked(X: np.ndarray) -> np.ndarray:
        X = np.asarray(X, dtype=np.float64)
        return np.column_stack([matvec(X[:, j]) for j in range(X.shape[1])])

    return stacked


def _io_support(method) -> tuple[bool, bool]:
    """Does ``method`` take the ``out=`` / ``workspace=`` keywords?"""
    try:
        params = inspect.signature(method).parameters
    except (TypeError, ValueError):  # builtins / exotic callables
        return False, False
    if any(p.kind is p.VAR_KEYWORD for p in params.values()):
        return True, True
    return "out" in params, "workspace" in params


def into_adapter(fn, workspace=None) -> Callable:
    """Wrap ``fn(x) -> y`` as ``fn(x, out) -> out``.

    When ``fn`` supports the ``out=`` keyword (all format matvecs, the
    optimized operator) the result is written straight into the
    caller's buffer — bit-identical to the allocating path — and a
    ``workspace`` arena is threaded through when supported, so repeat
    calls allocate nothing. Bare callables fall back to
    compute-then-copy.
    """
    has_out, has_ws = _io_support(fn)
    if has_out and has_ws and workspace is not None:
        def into(x, out):
            return fn(x, out=out, workspace=workspace)
    elif has_out:
        def into(x, out):
            return fn(x, out=out)
    else:
        def into(x, out):
            np.copyto(out, fn(x))
            return out
    return into


def as_matvec_into(operator, workspace=None) -> Callable:
    """Normalize an operator to in-place ``matvec(x, out) -> out``."""
    return into_adapter(as_matvec(operator), workspace)


def as_matmat_into(operator, workspace=None) -> Callable:
    """Normalize an operator to in-place ``matmat(X, out) -> out``."""
    return into_adapter(as_matmat(operator), workspace)


def columnwise(M) -> Callable[[np.ndarray], np.ndarray]:
    """Lift a single-vector preconditioner to a column-block one.

    Preconditioners are written for 1-D residuals; block solvers apply
    them per column through this wrapper (the identity passes through
    untouched).
    """
    if M is identity_preconditioner:
        return identity_preconditioner

    def apply(R: np.ndarray) -> np.ndarray:
        return np.column_stack([M(R[:, j]) for j in range(R.shape[1])])

    return apply


def identity_preconditioner(r: np.ndarray) -> np.ndarray:
    """The no-op preconditioner."""
    return r
