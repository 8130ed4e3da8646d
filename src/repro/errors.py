"""Typed exception hierarchy and validation reporting for the library.

Every failure the guard layer (:mod:`repro.guard`) can detect maps to a
subclass of :class:`ReproError`, so callers can catch one base type at a
service boundary instead of fishing for bare ``ValueError`` /
``RuntimeError`` raised deep inside vectorized NumPy code. The concrete
subclasses also inherit the builtin exception they historically were
(``ValueError`` for malformed input, ``RuntimeError`` for execution
faults), so pre-existing ``except ValueError`` call sites keep working.

:class:`ValidationReport` is the permissive-mode counterpart: instead of
raising on the first defect, a format's ``validate(strict=False)``
collects every detected issue into a report the caller can log, surface
in a CLI, or turn into a :class:`FormatValidationError` later via
:meth:`ValidationReport.raise_if_failed`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = [
    "ReproError",
    "FormatValidationError",
    "SolverBreakdownError",
    "ParallelExecutionError",
    "ChunkFailure",
    "PlanCacheWarning",
    "ValidationIssue",
    "ValidationReport",
]


class ReproError(Exception):
    """Base class for all typed errors raised by this library."""


class SolverBreakdownError(ReproError, RuntimeError):
    """An iterative solver broke down irrecoverably.

    The solvers themselves prefer returning a diagnostic
    ``SolveResult`` with ``report.breakdown`` set; this type exists for
    callers who want to escalate such a result into an exception.
    """


@dataclass(frozen=True)
class ChunkFailure:
    """Attribution record of one failed, hung or poisoned parallel
    chunk: which contiguous row range, on which worker slot, and how it
    failed. Carried by :class:`ParallelExecutionError` and by the
    supervision reports of :mod:`repro.engine.supervision`."""

    #: index of the chunk in its :class:`~repro.engine.executor.
    #: ParallelExecutor` (``-1`` when a worker timed out between
    #: chunks).
    chunk_index: int
    #: contiguous row range ``[row_lo, row_hi)`` of the chunk (``-1``
    #: bounds when no chunk was attributable).
    row_lo: int
    row_hi: int
    #: worker slot (one thread's share of the partition) the failure
    #: was observed on; without a deadline slot 0 runs on the caller.
    thread_slot: int
    #: ``"exception"`` | ``"timeout"`` | ``"poisoned"``.
    kind: str
    #: human-readable detail (exception repr, non-finite row count, ...).
    detail: str = ""

    def __str__(self) -> str:
        where = (
            f"chunk {self.chunk_index} rows [{self.row_lo}, {self.row_hi})"
            if self.chunk_index >= 0 else "no chunk"
        )
        tail = f" ({self.detail})" if self.detail else ""
        return f"{where} on slot {self.thread_slot}: {self.kind}{tail}"


class ParallelExecutionError(ReproError, RuntimeError):
    """A parallel apply failed and its output must not be trusted.

    Raised by the shared-memory execution plane when a worker slot
    faulted (``kind == "worker-fault"``) or the apply's deadline budget
    was breached with chunks still running (``kind == "deadline"``).
    The caller-provided ``out=`` buffer is never left partially
    written: it is NaN-invalidated before this error escapes (a
    breached deadline additionally computes into private scratch so an
    abandoned worker can never race a caller-owned buffer).

    ``failures`` carries one :class:`ChunkFailure` per affected chunk
    with partition/chunk attribution; the supervision layer
    (:class:`~repro.engine.supervision.SupervisedExecutor`) catches this
    type to drive its retry/degradation ladder.
    """

    def __init__(self, kind: str, failures=(), *, nthreads: int = 0,
                 schedule: str = "", wall_seconds: float = 0.0,
                 deadline_seconds: float | None = None):
        self.kind = kind
        self.failures = tuple(failures)
        self.nthreads = int(nthreads)
        self.schedule = schedule
        self.wall_seconds = float(wall_seconds)
        self.deadline_seconds = deadline_seconds
        detail = "; ".join(str(f) for f in self.failures)
        budget = (
            f" (deadline {1e3 * deadline_seconds:.1f} ms)"
            if deadline_seconds is not None else ""
        )
        super().__init__(
            f"parallel apply failed [{kind}] at nthreads={self.nthreads} "
            f"schedule={self.schedule!r} after "
            f"{1e3 * self.wall_seconds:.2f} ms{budget}: "
            f"{detail or 'no chunk attribution'}"
        )


class PlanCacheWarning(UserWarning):
    """A persisted plan cache could not be used (truncated, corrupted,
    checksum mismatch, or old schema) and service degraded to an empty
    cache instead of raising mid-serve. Emitted by
    :meth:`repro.core.optimizer.PlanCache.load`."""


@dataclass(frozen=True)
class ValidationIssue:
    """One defect found by structural or value validation."""

    #: machine-readable slug, e.g. ``"rowptr-nonmonotonic"``.
    code: str
    #: human-readable description with offending positions/values.
    message: str

    def __str__(self) -> str:
        return f"[{self.code}] {self.message}"


@dataclass
class ValidationReport:
    """Accumulated result of one ``validate()`` pass over a format."""

    format_name: str
    issues: list[ValidationIssue] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.issues

    def add(self, code: str, message: str) -> None:
        self.issues.append(ValidationIssue(code, message))

    def extend(self, other: "ValidationReport", prefix: str = "") -> None:
        """Merge a sub-report (e.g. a nested format's), prefixing codes."""
        for issue in other.issues:
            self.add(prefix + issue.code, issue.message)

    def raise_if_failed(self) -> None:
        if not self.ok:
            raise FormatValidationError(self)

    def summary(self) -> str:
        if self.ok:
            return f"{self.format_name}: ok"
        lines = [f"{self.format_name}: {len(self.issues)} issue(s)"]
        lines += [f"  {issue}" for issue in self.issues]
        return "\n".join(lines)

    def __str__(self) -> str:
        return self.summary()


class FormatValidationError(ReproError, ValueError):
    """A sparse format failed structural or value validation.

    Carries the full :class:`ValidationReport` as ``.report`` so strict
    callers still see every defect, not just the first.
    """

    def __init__(self, report: ValidationReport):
        self.report = report
        detail = "; ".join(str(issue) for issue in report.issues)
        super().__init__(
            f"{report.format_name} failed validation with "
            f"{len(report.issues)} issue(s): {detail}"
        )
