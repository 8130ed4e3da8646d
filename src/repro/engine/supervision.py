"""Supervision middleware: deadline-aware fault-tolerant execution.

This module is the engine's supervision layer.
:class:`SupervisedExecutor` runs the parallel execution plane
(one :class:`~repro.engine.executor.ParallelExecutor` per ladder rung)
behind the degradation ladder a serving system needs when a worker
crashes, hangs past its deadline, or poisons its partition:

1. run at the requested thread count (or at a previously *demoted*
   width, see below);
2. on failure, retry at half the thread count after a bounded
   exponential backoff, repeatedly, down to one thread (at most
   ``max_retries`` retries; the backoff falls only between parallel
   rungs, never before the serial fallback);
3. finally fall back to the serial zero-alloc CSR kernel — the same
   bit-identical reference :class:`~repro.engine.guard.GuardedKernel`
   recovers onto — so the caller still gets a correct result.

Every rung is bit-identical to serial by the parallel plane's
construction (contiguous row chunks, disjoint ``out`` slices, no
cross-thread reduction), so degrading never changes numerics — only
wall time.

Demotions are recorded in a quarantine-style process-global registry
keyed by :meth:`~repro.parallel.plane.ParallelConfig.signature`:
:class:`SupervisedExecutor` reads a configuration's demoted width with
:func:`demoted_target` before every apply, so a configuration that
already failed starts directly at that width instead of re-walking the
ladder.
Each apply optionally records a ``supervise`` Tracer span carrying the
full :class:`SupervisionReport` (see docs/observability.md).

Deadline semantics: ``deadline_seconds`` is a *total* budget for one
``apply``/``apply_multi`` call across every parallel rung. Each rung's
watchdog gets the remaining budget; a rung that breaches it has its
thread pool recycled (:func:`~repro.parallel.pool.recycle_executor` —
the abandoned hung workers must not leak into the next apply) and the
ladder drops to the next rung. When the budget is exhausted the ladder
jumps straight to the serial fallback, which is never subject to the
deadline: guaranteed progress beats a late error for a serving stack
(see docs/robustness.md).
"""

from __future__ import annotations

import threading
import time

import numpy as np

from ..errors import ParallelExecutionError
from ..formats import CSRMatrix
from ..kernels.base import Kernel
from .executor import ExecutorBase, ParallelExecutor, kernel_label
from .guard import GuardedKernel, non_finite_check

__all__ = [
    "AttemptRecord",
    "SupervisionReport",
    "SupervisedExecutor",
    "record_demotion",
    "demoted_target",
    "demotion_count",
    "demotion_log",
    "clear_demotions",
]


# -- demotion registry (quarantine-style, process-global) ---------------

_demotion_lock = threading.Lock()
#: config signature -> {"target", "reason", "events"}
_demotions: dict[str, dict] = {}


def record_demotion(signature: str, target_nthreads: int,
                    reason: str) -> None:
    """Record that ``signature`` degraded to ``target_nthreads``
    (``0`` means serial fallback). Repeated demotions of the same
    configuration keep the *lowest* target seen and bump ``events``."""
    target = int(target_nthreads)
    with _demotion_lock:
        entry = _demotions.get(signature)
        if entry is None:
            _demotions[signature] = {
                "target": target, "reason": reason, "events": 1,
            }
        else:
            entry["events"] += 1
            if target < entry["target"]:
                entry["target"] = target
                entry["reason"] = reason


def demoted_target(signature: str) -> int | None:
    """Demoted thread count for a config signature (``0`` = serial),
    or ``None`` when the configuration never failed."""
    with _demotion_lock:
        entry = _demotions.get(signature)
        return None if entry is None else int(entry["target"])


def demotion_count() -> int:
    """Total demotion events recorded since the last clear."""
    with _demotion_lock:
        return sum(e["events"] for e in _demotions.values())


def demotion_log() -> dict[str, dict]:
    """Snapshot of the registry (telemetry, CLI reports, tests)."""
    with _demotion_lock:
        return {sig: dict(entry) for sig, entry in _demotions.items()}


def clear_demotions() -> None:
    """Forget every recorded demotion (tests, operator reset)."""
    with _demotion_lock:
        _demotions.clear()


# -- supervision report -------------------------------------------------

class AttemptRecord:
    """One rung of the degradation ladder, as actually executed."""

    __slots__ = ("nthreads", "mode", "outcome", "wall_seconds", "detail")

    def __init__(self, nthreads: int, mode: str, outcome: str,
                 wall_seconds: float, detail: str = ""):
        self.nthreads = int(nthreads)
        #: ``"parallel"`` | ``"serial"``.
        self.mode = mode
        #: ``"ok"`` | ``"worker-fault"`` | ``"deadline"`` | ``"poisoned"``.
        self.outcome = outcome
        self.wall_seconds = float(wall_seconds)
        self.detail = detail

    def label(self) -> str:
        name = "serial" if self.mode == "serial" else f"t{self.nthreads}"
        return name if self.outcome == "ok" else f"{name}!{self.outcome}"

    def to_dict(self) -> dict:
        return {
            "nthreads": self.nthreads,
            "mode": self.mode,
            "outcome": self.outcome,
            "wall_seconds": self.wall_seconds,
            "detail": self.detail,
        }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<AttemptRecord {self.label()}>"


class SupervisionReport:
    """What one supervised apply did: every attempt, the final mode,
    and whether the configuration was demoted for future applies."""

    __slots__ = ("attempts", "final_mode", "final_nthreads", "demoted",
                 "wall_seconds", "deadline_seconds")

    def __init__(self, attempts, final_mode: str, final_nthreads: int,
                 demoted: bool, wall_seconds: float,
                 deadline_seconds: float | None):
        self.attempts = tuple(attempts)
        self.final_mode = final_mode
        self.final_nthreads = int(final_nthreads)
        self.demoted = bool(demoted)
        self.wall_seconds = float(wall_seconds)
        self.deadline_seconds = deadline_seconds

    @property
    def degraded(self) -> bool:
        """Whether any attempt failed (the ladder had to move)."""
        return any(a.outcome != "ok" for a in self.attempts)

    def ladder(self) -> str:
        """Human-readable rung trace, e.g. ``t4!worker-fault -> t2 ->``
        (used by the CLI report and error messages)."""
        return " -> ".join(a.label() for a in self.attempts)

    def summary(self) -> dict:
        """JSON-ready snapshot (tracer spans, CLI)."""
        return {
            "final_mode": self.final_mode,
            "final_nthreads": self.final_nthreads,
            "demoted": self.demoted,
            "degraded": self.degraded,
            "attempts": [a.to_dict() for a in self.attempts],
            "ladder": self.ladder(),
            "wall_seconds": self.wall_seconds,
            "deadline_seconds": self.deadline_seconds,
        }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<SupervisionReport {self.ladder()}>"


# -- supervised executor ------------------------------------------------

class SupervisedExecutor(ExecutorBase):
    """Fault-tolerant executor over the parallel plane.

    Exposes the engine's ``apply``/``apply_multi`` protocol, but a
    worker crash, hang, or poisoned partition never escapes as a
    partial result: the call walks the degradation ladder (retry at
    reduced width, then the serial zero-alloc CSR fallback) and
    returns a bit-identical result,
    or — only when even serial execution is impossible — raises the
    last :class:`~repro.errors.ParallelExecutionError`.

    Per-rung :class:`~repro.engine.executor.ParallelExecutor`
    instances are cached, so a ladder that settles at a lower width
    pays preprocessing once, not per apply.
    """

    def __init__(self, csr: CSRMatrix, kernel: Kernel | None = None, *,
                 nthreads: int, schedule: str = "balanced-nnz",
                 chunk_rows: int | None = None,
                 deadline_seconds: float | None = None,
                 max_retries: int = 2,
                 backoff_seconds: float = 0.001,
                 serial_fallback: bool = True,
                 tracer=None):
        if int(nthreads) < 1:
            raise ValueError(f"nthreads must be >= 1, got {nthreads}")
        if kernel is None:
            from ..kernels.variants import baseline_kernel

            kernel = baseline_kernel()
        self.csr = csr
        self.inner = kernel
        self.nthreads = int(nthreads)
        self.schedule = schedule
        self.chunk_rows = chunk_rows
        self.deadline_seconds = deadline_seconds
        self.max_retries = max(0, int(max_retries))
        self.backoff_seconds = float(backoff_seconds)
        self.serial_fallback = bool(serial_fallback)
        self.tracer = tracer
        #: rung width -> ParallelExecutor, built lazily.
        self._rungs: dict[int, ParallelExecutor] = {}
        #: report of the most recent apply.
        self.last_report: SupervisionReport | None = None
        # Poison detection applies GuardedKernel rule 3 to the whole
        # output. A guarded kernel applies it to every chunk and falls
        # back itself, so a guarded stack keeps the guard's check only.
        self._detect_poison = not isinstance(kernel, GuardedKernel)
        # Prime the requested rung so construction fails fast on a bad
        # partition and the first apply pays no preprocessing.
        #: Demotion-registry key (the parallel config signature).
        self.signature = self._rung(self.nthreads).config.signature()

    # -- rung management ------------------------------------------------

    @property
    def last_measurement(self):
        """Per-thread clocks (:class:`~repro.parallel.plane.
        ParallelMeasurement`) of the final *successful* parallel rung
        (``None`` after a serial fallback or before the first apply)."""
        if self.last_report is None:
            return None
        if self.last_report.final_mode != "parallel":
            return None
        return self._rung(self.last_report.final_nthreads).last_measurement

    def _rung(self, width: int) -> ParallelExecutor:
        rung = self._rungs.get(width)
        if rung is None:
            rung = ParallelExecutor(self.csr, self.inner, nthreads=width,
                                    schedule=self.schedule,
                                    chunk_rows=self.chunk_rows)
            self._rungs[width] = rung
        return rung

    def _widths(self) -> list[int]:
        """Parallel rung widths to try, honoring prior demotions.

        Starts at the requested width (or the registry's demoted width
        when this configuration already failed), then halves down to
        one thread, bounded by ``max_retries`` extra rungs. A demoted
        target of ``0`` means "go straight to serial": no parallel
        rungs at all.
        """
        start = self.nthreads
        demoted = demoted_target(self.signature)
        if demoted is not None:
            if demoted < 1:
                return []
            start = min(start, demoted)
        widths = [start]
        while widths[-1] > 1 and len(widths) <= self.max_retries:
            widths.append(max(1, widths[-1] // 2))
        return widths

    # -- poisoned-partition detection -----------------------------------

    def _poison_check(self, rung: ParallelExecutor, y: np.ndarray,
                      x: np.ndarray) -> tuple[np.ndarray | None, list]:
        """Poisoned output rows attributed back to their chunks.

        Returns ``(reference, failures)`` of guard rule 3
        (:func:`~repro.engine.guard.non_finite_check`) applied to the
        whole output against the serial CSR product: a row is poisoned
        when it holds a non-finite entry that product does not, from a
        finite operand. ``reference`` is that product when ``y`` must
        not be returned as it is, else ``None``. Returns ``(None, [])``
        when the kernel is guarded (the guard already checked every
        chunk).
        """
        if not self._detect_poison:
            return None, []
        reference, bad_rows = non_finite_check(y, self.csr, x)
        if not bad_rows.size:
            return reference, []
        from ..errors import ChunkFailure

        failures = []
        for ci, chunk in enumerate(rung.chunks):
            n_bad = int(
                np.count_nonzero(
                    (bad_rows >= chunk.lo) & (bad_rows < chunk.hi)
                )
            )
            if n_bad:
                failures.append(ChunkFailure(
                    chunk_index=ci, row_lo=chunk.lo, row_hi=chunk.hi,
                    thread_slot=chunk.tid, kind="poisoned",
                    detail=f"{n_bad} non-finite row(s)",
                ))
        return reference, failures

    # -- ladder execution -----------------------------------------------

    def apply(self, x: np.ndarray, out: np.ndarray | None = None,
              workspace=None) -> np.ndarray:
        return self._apply(x, out, workspace, multi=False)

    def apply_multi(self, X: np.ndarray, out: np.ndarray | None = None,
                    workspace=None) -> np.ndarray:
        return self._apply(X, out, workspace, multi=True)

    def describe(self) -> str:
        return (
            f"supervision[t{self.nthreads}/{self.schedule}"
            f",retries={self.max_retries}] -> {kernel_label(self.inner)}"
        )

    def _serial(self, x: np.ndarray, out, workspace, *,
                multi: bool) -> np.ndarray:
        # The reference zero-alloc CSR kernel — identical recovery
        # target to GuardedKernel's fallback, bit-identical to every
        # parallel rung by the plane's construction.
        if multi:
            return self.csr.matmat(x, out=out, workspace=workspace)
        return self.csr.matvec(x, out=out, workspace=workspace)

    def _apply(self, x: np.ndarray, out, workspace, *,
               multi: bool) -> np.ndarray:
        started = time.perf_counter()
        budget = self.deadline_seconds
        attempts: list[AttemptRecord] = []
        last_error: ParallelExecutionError | None = None
        result = None
        final_mode = "serial"
        final_width = 0

        widths = self._widths()
        for n_attempt, width in enumerate(widths):
            remaining = None
            if budget is not None:
                remaining = budget - (time.perf_counter() - started)
                if remaining <= 0.0:
                    break  # budget gone: straight to serial
            rung = self._rung(width)
            t0 = time.perf_counter()
            try:
                if multi:
                    y = rung.apply_multi(x, out=out, workspace=workspace,
                                         deadline_seconds=remaining)
                else:
                    y = rung.apply(x, out=out, workspace=workspace,
                                   deadline_seconds=remaining)
            except ParallelExecutionError as exc:
                last_error = exc
                attempts.append(AttemptRecord(
                    width, "parallel", exc.kind,
                    time.perf_counter() - t0, detail=str(exc),
                ))
                if exc.kind == "deadline":
                    # The breached rung abandoned hung workers inside
                    # its pool; retire it so the next apply at this
                    # width gets a fresh team.
                    from ..parallel.pool import recycle_executor

                    recycle_executor(width)
            else:
                reference, poison = self._poison_check(rung, y, x)
                if poison:
                    last_error = ParallelExecutionError(
                        "poisoned", tuple(poison), nthreads=width,
                        schedule=self.schedule,
                        wall_seconds=time.perf_counter() - t0,
                        deadline_seconds=remaining,
                    )
                    attempts.append(AttemptRecord(
                        width, "parallel", "poisoned",
                        time.perf_counter() - t0,
                        detail=str(last_error),
                    ))
                    if out is not None:
                        np.asarray(out).fill(np.nan)
                else:
                    attempts.append(AttemptRecord(
                        width, "parallel", "ok",
                        time.perf_counter() - t0,
                    ))
                    if reference is not None:
                        # An operand NaN/Inf spread through a padded
                        # format's stored zeros: return the CSR product.
                        np.copyto(y, reference)
                    result = y
                    final_mode = "parallel"
                    final_width = width
                    break
            # Back off only before another parallel rung: the serial
            # fallback shares no pool with the rung that just failed.
            if self.backoff_seconds > 0.0 and n_attempt + 1 < len(widths):
                pause = min(
                    self.backoff_seconds * 2.0 ** n_attempt, 0.1
                )
                if budget is not None:
                    pause = min(
                        pause,
                        max(budget - (time.perf_counter() - started),
                            0.0),
                    )
                if pause > 0.0:
                    time.sleep(pause)

        if result is None:
            if not self.serial_fallback:
                if last_error is None:  # pragma: no cover - defensive
                    last_error = ParallelExecutionError(
                        "worker-fault", nthreads=self.nthreads,
                        schedule=self.schedule,
                    )
                self._finish(attempts, "failed", 0, started)
                raise last_error
            t0 = time.perf_counter()
            result = self._serial(x, out, workspace, multi=multi)
            attempts.append(AttemptRecord(
                0, "serial", "ok", time.perf_counter() - t0,
            ))
            final_mode = "serial"
            final_width = 0

        self._finish(attempts, final_mode, final_width, started)
        return result

    def _finish(self, attempts, final_mode: str, final_width: int,
                started: float) -> None:
        degraded = any(a.outcome != "ok" for a in attempts)
        # Record a demotion only when a failure actually drove the
        # ladder below the requested width — an apply that starts at an
        # already-demoted width and succeeds adds nothing new.
        demote = degraded and (
            final_mode != "parallel" or final_width < self.nthreads
        )
        if demote:
            reasons = sorted(
                {a.outcome for a in attempts if a.outcome != "ok"}
            )
            record_demotion(
                self.signature,
                final_width if final_mode == "parallel" else 0,
                "+".join(reasons),
            )
        report = SupervisionReport(
            attempts, final_mode, final_width, demote,
            time.perf_counter() - started, self.deadline_seconds,
        )
        self.last_report = report
        if self.tracer is not None:
            self.tracer.record(
                "supervise", wall_seconds=report.wall_seconds,
                supervision=report.summary(),
            )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"<{type(self).__name__} t={self.nthreads} {self.schedule!r} "
            f"deadline={self.deadline_seconds} "
            f"retries={self.max_retries} {self.csr!r}>"
        )
