"""Abstract interface shared by all sparse-matrix storage formats.

Every format in :mod:`repro.formats` exposes

* the logical matrix (``shape``, ``nnz``) and ``validate()``,
* a storage-accounting plane: :meth:`SparseFormat.index_nbytes` /
  :meth:`SparseFormat.value_nbytes`, used by the machine model to derive
  memory traffic and by the paper's per-class performance bounds
  (``M_{A_format,min} = S_format`` in Section III-B).

Only the formats a kernel executes (CSR, BCSR, SELL-C-sigma) add a
numeric plane, ``matvec(x)`` and the batched ``matmat(X)``.
"""

from __future__ import annotations

import abc

import numpy as np

from ..errors import ValidationReport

__all__ = ["SparseFormat", "check_out_buffer", "contiguous_operand",
           "trust_out_buffer"]


class _TrustedOut(np.ndarray):
    """Marker view over an already-validated ``out=`` buffer.

    The engine boundary (:mod:`repro.engine`) validates a caller-owned
    output buffer exactly once with :func:`check_out_buffer` and then
    passes a ``_TrustedOut`` *view* of it inward; every nested format
    and kernel recognizes the marker and skips re-validation. Slices of
    a trusted view stay trusted (NumPy preserves the subclass), which
    is what lets the parallel plane hand disjoint per-chunk ``out``
    slices to workers without one validation per chunk per apply.

    The view shares memory with the original array — writes through it
    land in the caller's buffer.
    """

    __slots__ = ()


def trust_out_buffer(out: np.ndarray) -> np.ndarray:
    """Mark an already-validated buffer as trusted for nested calls.

    Only call this *after* :func:`check_out_buffer` accepted ``out``
    (including the aliasing check against the operand): the returned
    view short-circuits every downstream ``check_out_buffer``.
    """
    if isinstance(out, _TrustedOut):
        return out
    return out.view(_TrustedOut)


def contiguous_operand(x: np.ndarray, workspace,
                       name: str) -> np.ndarray:
    """Return ``x`` as a C-contiguous operand for the kernels.

    The compiled kernels (and ``np.take``) silently copy a
    non-contiguous source (e.g. a column view of a multi-RHS block)
    into a fresh buffer on every call. A contiguous ``x`` passes
    through untouched; otherwise the copy goes through the workspace
    arena when one is supplied, keeping the steady state
    allocation-free. Values are unchanged either way, so results stay
    bit-identical.
    """
    if x.flags.c_contiguous:
        return x
    if workspace is None:
        return np.ascontiguousarray(x)
    buf = workspace.buffer(name, x.shape)
    np.copyto(buf, x)
    return buf


def check_out_buffer(out: np.ndarray, shape: tuple, *,
                     operand: np.ndarray | None = None,
                     name: str = "out") -> np.ndarray:
    """Validate a caller-owned output buffer for the ``out=`` plane.

    The buffer must be a C-contiguous float64 ndarray of exactly
    ``shape``, and must not alias ``operand`` (the kernel writes
    ``out`` while still reading the operand, so overlap would corrupt
    the result). The alias check uses :func:`numpy.may_share_memory`
    (cheap bounds test): disjoint slices of one base array are
    conservatively rejected.

    A :func:`trust_out_buffer` view passes through unchecked: it was
    already validated once at the engine boundary, and re-validating on
    every nested format/kernel call (the old double-validation path)
    only burned cycles in the hot loop.
    """
    if isinstance(out, _TrustedOut):
        return out
    if not isinstance(out, np.ndarray):
        raise TypeError(
            f"{name} must be a numpy.ndarray, got {type(out).__name__}"
        )
    if out.dtype != np.float64:
        raise TypeError(f"{name} must be float64, got {out.dtype}")
    if out.shape != tuple(shape):
        raise ValueError(
            f"{name} must have shape {tuple(shape)}, got {out.shape}"
        )
    if not out.flags.c_contiguous:
        raise ValueError(f"{name} must be C-contiguous")
    if not out.flags.writeable:
        raise ValueError(f"{name} must be writeable")
    if operand is not None and np.may_share_memory(out, operand):
        raise ValueError(
            f"{name} must not share memory with the input operand"
        )
    return out


class SparseFormat(abc.ABC):
    """Base class for sparse matrix storage formats."""

    #: short identifier used in reports, e.g. ``"csr"``.
    format_name: str = "abstract"

    # -- validation plane ---------------------------------------------

    def validate(self, *, strict: bool = True,
                 check_values: bool = True) -> ValidationReport:
        """Check the structural invariants (and optionally value
        finiteness) of this format's stored arrays.

        Constructors reject many malformed inputs up front, but arrays
        can be corrupted after construction (in-place mutation, buggy
        converters, fault injection); ``validate`` re-checks every
        invariant the kernels rely on.

        With ``strict=True`` (the default) a
        :class:`~repro.errors.FormatValidationError` is raised listing
        every detected issue; with ``strict=False`` (permissive mode)
        the full :class:`~repro.errors.ValidationReport` is returned and
        never raises — callers inspect ``report.ok``.
        """
        report = ValidationReport(self.format_name)
        self._validate_structure(report)
        if check_values:
            self._validate_values(report)
        if strict:
            report.raise_if_failed()
        return report

    def _validate_structure(self, report: ValidationReport) -> None:
        """Format-specific structural checks (overridden per format)."""

    def _value_arrays(self):
        """``(name, array)`` pairs of numeric payloads to finiteness-check."""
        values = getattr(self, "values", None)
        return [("values", values)] if values is not None else []

    def _validate_values(self, report: ValidationReport) -> None:
        for name, arr in self._value_arrays():
            bad = ~np.isfinite(arr)
            if bad.any():
                flat = np.flatnonzero(bad.ravel())
                report.add(
                    "non-finite-values",
                    f"{name} contains {flat.size} non-finite entrie(s) "
                    f"(first at flat index {int(flat[0])})",
                )

    @property
    @abc.abstractmethod
    def shape(self) -> tuple[int, int]:
        """Logical ``(rows, cols)`` of the matrix."""

    @property
    @abc.abstractmethod
    def nnz(self) -> int:
        """Number of stored (explicit) nonzero elements."""

    def _check_matmat_input(self, X: np.ndarray) -> np.ndarray:
        """Validate and normalize a multi-RHS operand to C-contiguous
        float64 of shape ``(ncols, k)``."""
        X = np.ascontiguousarray(X, dtype=np.float64)
        if X.ndim != 2 or X.shape[0] != self.ncols:
            raise ValueError(
                f"X must have shape ({self.ncols}, k), got {X.shape}"
            )
        return X

    @abc.abstractmethod
    def index_nbytes(self) -> int:
        """Bytes used by indexing structures (rowptr/colind/deltas/...)."""

    @abc.abstractmethod
    def value_nbytes(self) -> int:
        """Bytes used by the stored numeric values."""

    def total_nbytes(self) -> int:
        """Total bytes of the matrix representation."""
        return self.index_nbytes() + self.value_nbytes()

    # -- conveniences -------------------------------------------------

    @property
    def nrows(self) -> int:
        return self.shape[0]

    @property
    def ncols(self) -> int:
        return self.shape[1]

    def __matmul__(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x)
        if x.ndim == 2:
            return self.matmat(x)
        return self.matvec(x)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        r, c = self.shape
        return (
            f"<{type(self).__name__} {r}x{c} nnz={self.nnz} "
            f"bytes={self.total_nbytes()}>"
        )


# -- shared validation checks (used by the concrete formats) ----------


def check_pointer_array(report: ValidationReport, name: str,
                        ptr: np.ndarray, *, nseg: int, end: int) -> bool:
    """Validate a CSR-style offset array: length ``nseg + 1``, starts at
    0, non-decreasing, ends exactly at ``end``.

    Returns True when the pointer is safe to *index with* (monotone and
    in range), so callers can gate derived checks on it.
    """
    ok = True
    if ptr.ndim != 1 or ptr.size != nseg + 1:
        report.add(
            f"{name}-length",
            f"{name} must have {nseg + 1} entries, got shape {ptr.shape}",
        )
        return False
    if ptr[0] != 0:
        report.add(f"{name}-start", f"{name}[0] must be 0, got {int(ptr[0])}")
        ok = False
    drops = np.flatnonzero(np.diff(ptr) < 0)
    if drops.size:
        p = int(drops[0])
        report.add(
            f"{name}-nonmonotonic",
            f"{name} decreases at position {p + 1} "
            f"({int(ptr[p])} -> {int(ptr[p + 1])})",
        )
        ok = False
    if ptr[-1] != end:
        report.add(
            f"{name}-end",
            f"{name}[-1] must equal {end}, got {int(ptr[-1])}",
        )
        ok = False
    return ok


def check_index_bounds(report: ValidationReport, name: str,
                       idx: np.ndarray, upper: int) -> bool:
    """Validate that every index lies in ``[0, upper)``."""
    if idx.size == 0:
        return True
    ok = True
    lo = int(idx.min())
    hi = int(idx.max())
    if lo < 0:
        p = int(np.flatnonzero(idx < 0)[0])
        report.add(
            f"{name}-negative",
            f"{name}[{p}] = {int(idx[p])} is negative",
        )
        ok = False
    if hi >= upper:
        p = int(np.flatnonzero(idx >= upper)[0])
        report.add(
            f"{name}-out-of-bounds",
            f"{name}[{p}] = {int(idx[p])} exceeds bound {upper - 1}",
        )
        ok = False
    return ok


def check_equal_length(report: ValidationReport, name_a: str,
                       a: np.ndarray, name_b: str, b: np.ndarray) -> bool:
    """Validate that two parallel arrays have equal length."""
    if a.shape[0] != b.shape[0]:
        report.add(
            "length-mismatch",
            f"{name_a} ({a.shape[0]}) and {name_b} ({b.shape[0]}) "
            f"must have equal length",
        )
        return False
    return True
