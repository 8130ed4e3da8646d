"""Guarded execution layer (robustness subsystem).

Hardens the pipeline end to end against malformed structural input,
NaN/Inf-poisoned values and misbehaving kernel variants:

* **validation** — every format exposes ``validate(strict=...)``
  (see :meth:`repro.formats.base.SparseFormat.validate`); the
  :func:`validate_format` convenience here dispatches to it and the
  error taxonomy lives in :mod:`repro.errors`;
* **fault injection** (:mod:`repro.guard.faults`) — deterministic
  corruption of structures, value poisoning and MatrixMarket stream
  truncation, used by ``tests/faults/`` to prove every layer fails
  loudly or degrades cleanly;
* **guarded kernels** (:class:`~repro.engine.guard.GuardedKernel`,
  re-exported here) — kernel wrappers that quarantine faulting variants (per-variant failure counters in
  :mod:`repro.kernels.registry`) and fall back to the reference CSR
  kernel bit-identically.

See ``docs/robustness.md`` for the full semantics.
"""

from ..errors import (
    ChunkFailure,
    FormatValidationError,
    KernelExecutionError,
    ParallelExecutionError,
    ReproError,
    SolverBreakdownError,
    ValidationIssue,
    ValidationReport,
)
from ..kernels.registry import (
    QUARANTINE_THRESHOLD,
    clear_quarantine,
    is_quarantined,
    kernel_failure_count,
    kernel_failure_log,
    quarantined_kernel_names,
    record_kernel_failure,
)
from .faults import (
    MM_FAULTS,
    PARALLEL_FAULTS,
    STRUCTURAL_FAULTS,
    VALUE_FAULTS,
    BrokenKernel,
    ParallelFaultKernel,
    applicable_faults,
    clone_format,
    corrupt_matrix_market,
    inject_structural_fault,
    inject_value_fault,
)
from ..engine.guard import GuardedData, GuardedKernel

__all__ = [
    # error taxonomy
    "ReproError",
    "FormatValidationError",
    "KernelExecutionError",
    "SolverBreakdownError",
    "ParallelExecutionError",
    "ChunkFailure",
    "ValidationIssue",
    "ValidationReport",
    "validate_format",
    # quarantine
    "QUARANTINE_THRESHOLD",
    "record_kernel_failure",
    "kernel_failure_count",
    "kernel_failure_log",
    "is_quarantined",
    "quarantined_kernel_names",
    "clear_quarantine",
    # guarded execution
    "GuardedData",
    "GuardedKernel",
    # fault injection
    "STRUCTURAL_FAULTS",
    "VALUE_FAULTS",
    "MM_FAULTS",
    "applicable_faults",
    "clone_format",
    "inject_structural_fault",
    "inject_value_fault",
    "corrupt_matrix_market",
    "BrokenKernel",
    "PARALLEL_FAULTS",
    "ParallelFaultKernel",
]


def validate_format(fmt, *, strict: bool = True,
                    check_values: bool = True) -> ValidationReport:
    """Validate any :class:`~repro.formats.base.SparseFormat` instance.

    Equivalent to ``fmt.validate(...)``; provided so guard-layer callers
    can validate without importing the formats package.
    """
    return fmt.validate(strict=strict, check_values=check_values)
