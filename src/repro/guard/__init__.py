"""Guarded execution layer (robustness subsystem).

Hardens the pipeline end to end against malformed structural input,
NaN/Inf-poisoned values and misbehaving kernel variants:

* **validation** — every format exposes ``validate(strict=...)``
  (see :meth:`repro.formats.base.SparseFormat.validate`); the error
  taxonomy lives in :mod:`repro.errors`;
* **fault injection** (:mod:`repro.guard.faults`) — deterministic
  corruption of structures, value poisoning and MatrixMarket stream
  truncation, used by ``tests/faults/`` to prove every layer fails
  loudly or degrades cleanly;
* **guarded kernels** (:class:`~repro.engine.guard.GuardedKernel`,
  re-exported here) — kernel wrappers that quarantine faulting
  variants (per-variant failure counters in
  :mod:`repro.kernels.registry`) and fall back to the reference CSR
  kernel bit-identically. A stack runs guarded when its
  :class:`~repro.engine.ExecutorSpec` says ``guard``;
  :func:`~repro.engine.build_executor` applies the wrapper.

See ``docs/robustness.md`` for the full semantics.
"""

from ..errors import (
    ChunkFailure,
    FormatValidationError,
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
    "SolverBreakdownError",
    "ParallelExecutionError",
    "ChunkFailure",
    "ValidationIssue",
    "ValidationReport",
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
