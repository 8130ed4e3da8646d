"""Guard middleware: catch kernel faults, quarantine, fall back.

This module is the engine's guard layer. :class:`GuardedKernel` wraps
any :class:`~repro.kernels.base.Kernel` and turns three classes of
runtime misbehavior into a recorded failure plus a transparent
fallback to the reference CSR kernel:

* the variant **raises** during ``preprocess`` / ``apply`` /
  ``apply_multi``;
* the variant returns output of the **wrong shape or dtype**;
* the variant produces a **non-finite entry where the CSR product is
  finite** from a finite operand. A non-finite output is checked
  against ``csr.matvec`` / ``csr.matmat`` of the same rows: NaN or Inf
  propagated from the matrix or the operand, and IEEE overflow, appear
  in that reference too and are returned as they are (see
  :func:`non_finite_check`).

Failures are recorded per variant name in the kernel registry's
quarantine store (:func:`repro.kernels.registry.record_kernel_failure`);
once a variant reaches the quarantine threshold every guarded wrapper
stops calling it and :class:`~repro.core.optimizer.AdaptiveSpMV`
refuses to plan it. The fallback result is computed by
``csr.matvec`` / ``csr.matmat`` on the original matrix — bit-identical
to the baseline CSR kernel's numeric plane.

The guard is also the engine's *validation boundary* for caller-owned
``out=`` buffers: the buffer is validated exactly once here
(:func:`~repro.formats.base.check_out_buffer`) and passed inward as a
:func:`~repro.formats.base.trust_out_buffer` view, so the wrapped
kernel and its formats skip their own re-validation instead of
re-checking the same buffer on every nested call. A wrong-shape
operand raises ``ValueError`` here, before the variant runs: a caller's
error never counts against the variant. Under supervision the guard
is the stack's one poison check (the supervisor skips its own).
"""

from __future__ import annotations

import numpy as np

from ..formats import CSRMatrix
from ..formats.base import check_out_buffer, trust_out_buffer
from ..kernels.base import Kernel
from ..kernels.registry import is_quarantined, record_kernel_failure
from ..machine import KernelCost, MachineSpec
from ..sched import Partition, make_partition

__all__ = ["GuardedData", "GuardedKernel", "guard_kernel"]


#: The fault rows of a product with none (shared, read-only).
_NO_ROWS = np.empty(0, dtype=np.intp)
_NO_ROWS.flags.writeable = False


def non_finite_check(y: np.ndarray, csr: CSRMatrix,
                     x: np.ndarray) -> tuple[np.ndarray | None, np.ndarray]:
    """Check the product ``y`` of ``csr`` and ``x`` for non-finite
    entries that the CSR product of the same rows does not hold.

    Returns ``(reference, fault_rows)``. A finite ``y`` (the usual case)
    costs one scan and returns ``(None, [])``; otherwise the CSR product
    is computed once. NaN or Inf propagated from the matrix values or
    the operand, and IEEE overflow of a finite product, reproduce in
    that product, so ``y`` stands: ``(None, [])`` again. When some
    entry of ``y`` is non-finite where the CSR product is finite,
    ``reference`` is that product, the result to return in place of
    ``y``, and ``fault_rows`` are the rows of such entries. They count
    as a kernel fault only for a finite ``x`` and are empty otherwise:
    a padded format multiplies its stored zeros (SELL-C-σ padding
    slots, BCSR fill-in) by the operand entries they sit over, so an
    operand NaN or Inf reaches rows whose CSR product never reads it.
    """
    finite = np.isfinite(y)
    if finite.all():
        return None, _NO_ROWS
    reference = csr.matmat(x) if y.ndim == 2 else csr.matvec(x)
    wrong = ~finite & np.isfinite(reference)
    if wrong.ndim == 2:
        wrong = wrong.any(axis=1)
    if not wrong.any():
        return None, _NO_ROWS
    if not np.isfinite(x).all():
        return reference, _NO_ROWS
    return reference, np.flatnonzero(wrong)


class GuardedData:
    """Execution bundle of a guarded kernel: the wrapped variant's data
    plus the original CSR kept for fallback."""

    __slots__ = ("inner", "csr")

    def __init__(self, inner, csr: CSRMatrix):
        self.inner = inner          # None when preprocess failed/skipped
        self.csr = csr

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = "fallback" if self.inner is None else "ok"
        return f"<GuardedData {state} {self.csr!r}>"


class GuardedKernel(Kernel):
    """Wrap ``inner`` so its faults quarantine it instead of escaping.

    The wrapper is name-transparent (``name`` / ``optimizations`` /
    ``schedule`` delegate to the wrapped variant) so plans, caches and
    reports see the variant they selected; only the failure behavior
    changes. Engine stack descriptions still name it
    (``guard -> kernel[csr]``).
    """

    def __init__(self, inner: Kernel):
        if isinstance(inner, GuardedKernel):
            inner = inner.inner
        self.inner = inner
        self.name = inner.name
        self.optimizations = inner.optimizations
        self.schedule = inner.schedule
        self.row_align = getattr(inner, "row_align", 1)
        #: faults caught by *this wrapper* (the registry aggregates per
        #: variant name across wrappers); exported by pipeline tracers.
        self.failure_events = 0

    def _record(self, reason: str) -> None:
        self.failure_events += 1
        record_kernel_failure(self.inner.name, reason)

    # -- preprocessing -------------------------------------------------

    def preprocess(self, csr: CSRMatrix) -> GuardedData:
        if is_quarantined(self.inner.name):
            return self.adopt(csr, None)
        try:
            inner_data = self.inner.preprocess(csr)
        except Exception as exc:
            self._record(
                f"preprocess raised {type(exc).__name__}: {exc}"
            )
            inner_data = None
        return self.adopt(csr, inner_data)

    def adopt(self, csr: CSRMatrix, inner_data) -> GuardedData:
        """Guarded data over ``inner_data``, which the wrapped kernel
        already preprocessed from ``csr`` (``None``: every apply falls
        back), so wrapping a planned kernel converts nothing again."""
        return GuardedData(inner_data, csr)

    def preprocessing_seconds(self, csr: CSRMatrix,
                              machine: MachineSpec) -> float:
        if is_quarantined(self.inner.name):
            return 0.0
        return self.inner.preprocessing_seconds(csr, machine)

    # -- numeric plane -------------------------------------------------

    def apply(self, data: GuardedData, x: np.ndarray,
              out: np.ndarray | None = None, workspace=None) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        ncols = data.csr.ncols
        if x.shape != (ncols,):
            raise ValueError(f"x must have shape ({ncols},), got {x.shape}")
        trusted = None
        if out is not None:
            # Validate once at the engine boundary; everything nested
            # (the wrapped variant, the CSR fallback) sees the trusted
            # view and skips re-validation.
            out = check_out_buffer(out, (data.csr.nrows,), operand=x)
            trusted = trust_out_buffer(out)
        y = self._guarded(data, x, multi=False, out=trusted,
                          workspace=workspace)
        if y is None:
            # The variant may have written garbage into a caller-owned
            # out buffer before failing; the fallback recomputes fully.
            y = data.csr.matvec(x, out=trusted, workspace=workspace)
        if out is not None:
            if y is not out and y is not trusted:
                np.copyto(out, y)
            return out
        return y

    def apply_multi(self, data: GuardedData, X: np.ndarray,
                    out: np.ndarray | None = None,
                    workspace=None) -> np.ndarray:
        X = data.csr._check_matmat_input(X)
        trusted = None
        if out is not None:
            out = check_out_buffer(out, (data.csr.nrows, X.shape[1]),
                                   operand=X)
            trusted = trust_out_buffer(out)
        Y = self._guarded(data, X, multi=True, out=trusted,
                          workspace=workspace)
        if Y is None:
            Y = data.csr.matmat(X, out=trusted, workspace=workspace)
        if out is not None:
            if Y is not out and Y is not trusted:
                np.copyto(out, Y)
            return out
        return Y

    def _guarded(self, data: GuardedData, x: np.ndarray,
                 *, multi: bool, out: np.ndarray | None = None,
                 workspace=None) -> np.ndarray | None:
        """Run the wrapped variant; None means 'use the CSR fallback'."""
        name = self.inner.name
        if data.inner is None or is_quarantined(name):
            return None
        apply_fn = self.inner.apply_multi if multi else self.inner.apply
        try:
            result = apply_fn(data.inner, x, out=out, workspace=workspace)
        except Exception as exc:
            self._record(f"apply raised {type(exc).__name__}: {exc}")
            return None
        expected = (
            (data.csr.nrows, np.asarray(x).shape[1])
            if multi
            else (data.csr.nrows,)
        )
        if not isinstance(result, np.ndarray) or result.shape != expected:
            got = getattr(result, "shape", type(result).__name__)
            self._record(
                f"apply returned shape {got}, expected {expected}"
            )
            return None
        reference, fault_rows = non_finite_check(result, data.csr, x)
        if fault_rows.size:
            self._record(
                "apply produced non-finite output where the CSR "
                "product is finite"
            )
        # The CSR product, once computed, is the fallback result.
        return result if reference is None else reference

    # -- cost plane & scheduling --------------------------------------

    def cost(self, data: GuardedData, machine: MachineSpec,
             partition: Partition) -> KernelCost:
        if data.inner is None or is_quarantined(self.inner.name):
            from ..kernels.variants import baseline_kernel

            base = baseline_kernel()
            return base.cost(base.preprocess(data.csr), machine, partition)
        return self.inner.cost(data.inner, machine, partition)

    def partition(self, data: GuardedData, nthreads: int) -> Partition:
        if data.inner is None or is_quarantined(self.inner.name):
            return make_partition(data.csr, nthreads, "balanced-nnz")
        return self.inner.partition(data.inner, nthreads)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<GuardedKernel {self.inner!r}>"


def guard_kernel(kernel: Kernel) -> GuardedKernel:
    """Wrap ``kernel`` in the guard. An already guarded kernel comes
    back as the same object, so callers can tell by identity whether
    data preprocessed for ``kernel`` still fits."""
    if isinstance(kernel, GuardedKernel):
        return kernel
    return GuardedKernel(kernel)
