"""Declarative, schema-versioned execution-stack specification.

An :class:`ExecutorSpec` describes one composed execution stack — which
middleware layers (:mod:`repro.engine.executor`) wrap the planned kernel
and with what configuration — as plain data:

* ``guard`` — wrap the kernel in the guard layer (fault quarantine +
  bit-identical CSR fallback);
* ``parallel`` — a :class:`~repro.parallel.plane.ParallelConfig`; when
  set, applies run on the shared-memory thread pool;
* ``supervision`` — a :class:`SupervisionSpec` (requires ``parallel``);
  failures degrade through the retry/serial ladder instead of raising;
* ``workspace`` — ``"none"`` | ``"shared"`` | ``"thread-local"``: give
  the stack its own default scratch arena;
* ``trace`` — record one ``engine.apply`` span per apply.

The spec is the only decision about how a planned kernel runs, and
:func:`~repro.engine.executor.build_executor` the only place it is
applied; planning and the plan cache handle plain kernels. Specs
serialize (:meth:`ExecutorSpec.to_dict` / ``from_dict`` under
:data:`ENGINE_SPEC_SCHEMA_VERSION`) and are folded into the
:class:`~repro.core.optimizer.OptimizationPlan` IR and the plan-cache
keys, so a warm-started plan reconstructs the exact same stack in a
fresh process (``repro.engine.build_executor(csr, plan.executor_spec)``).

Cache-key semantics: :meth:`ExecutorSpec.cache_signature` deliberately
excludes the ``guard`` and ``trace`` axes. A cache entry holds the
plain planned kernel, so guarded and unguarded optimizers *share* plan
entries, and tracing is pure observability; neither changes what was
planned. The parallel,
supervision and workspace axes do partition the cache: the signature
is ``"serial"`` or ``ParallelConfig.signature()``, followed by the
supervision and workspace settings when they are set.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..parallel.plane import ParallelConfig

__all__ = [
    "ENGINE_SPEC_SCHEMA_VERSION",
    "SupervisionSpec",
    "ExecutorSpec",
    "WORKSPACE_MODES",
]

#: Version of the serialized :class:`ExecutorSpec` layout.
ENGINE_SPEC_SCHEMA_VERSION = 1

#: Valid values of :attr:`ExecutorSpec.workspace`.
WORKSPACE_MODES = ("none", "shared", "thread-local")


@dataclass(frozen=True)
class SupervisionSpec:
    """Configuration of the supervision layer's degradation ladder.

    Field defaults match :class:`~repro.engine.supervision.
    SupervisedExecutor` exactly, so ``SupervisionSpec()`` reproduces a
    default-constructed ``SupervisedExecutor`` bit-for-bit.
    """

    deadline_seconds: float | None = None
    max_retries: int = 2
    backoff_seconds: float = 0.001
    serial_fallback: bool = True

    def __post_init__(self) -> None:
        if int(self.max_retries) < 0:
            raise ValueError(
                f"max_retries must be >= 0, got {self.max_retries}"
            )
        if float(self.backoff_seconds) < 0.0:
            raise ValueError(
                f"backoff_seconds must be >= 0, got {self.backoff_seconds}"
            )

    def signature(self) -> str:
        """Stable content string (cache keys, reports)."""
        deadline = (
            "none" if self.deadline_seconds is None
            else f"{float(self.deadline_seconds):g}"
        )
        return (
            f"supervise:deadline={deadline}"
            f",retries={int(self.max_retries)}"
            f",backoff={float(self.backoff_seconds):g}"
            f",serial_fallback={int(bool(self.serial_fallback))}"
        )

    def to_dict(self) -> dict:
        return {
            "deadline_seconds": self.deadline_seconds,
            "max_retries": int(self.max_retries),
            "backoff_seconds": float(self.backoff_seconds),
            "serial_fallback": bool(self.serial_fallback),
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "SupervisionSpec":
        deadline = payload.get("deadline_seconds")
        return cls(
            deadline_seconds=None if deadline is None else float(deadline),
            max_retries=int(payload.get("max_retries", 2)),
            backoff_seconds=float(payload.get("backoff_seconds", 0.001)),
            serial_fallback=bool(payload.get("serial_fallback", True)),
        )


@dataclass(frozen=True)
class ExecutorSpec:
    """One declarative description of a composed execution stack."""

    guard: bool = False
    parallel: ParallelConfig | None = None
    supervision: SupervisionSpec | None = None
    workspace: str = "none"
    trace: bool = False

    def __post_init__(self) -> None:
        if self.parallel is not None and not isinstance(
                self.parallel, ParallelConfig):
            raise TypeError(
                "parallel must be a repro.parallel.ParallelConfig, got "
                f"{type(self.parallel).__name__}"
            )
        if self.supervision is not None and self.parallel is None:
            raise ValueError(
                "supervision requires a parallel config: the ladder "
                "degrades *from* a parallel width"
            )
        if self.workspace not in WORKSPACE_MODES:
            raise ValueError(
                f"workspace must be one of {WORKSPACE_MODES}, "
                f"got {self.workspace!r}"
            )

    # -- signatures -----------------------------------------------------

    def cache_signature(self) -> str:
        """Plan-cache key component. It excludes ``guard`` (entries
        hold plain kernels) and ``trace`` (observability)."""
        base = (
            self.parallel.signature() if self.parallel is not None
            else "serial"
        )
        parts = [base]
        if self.supervision is not None:
            parts.append(self.supervision.signature())
        if self.workspace != "none":
            parts.append(f"workspace={self.workspace}")
        return ";".join(parts)

    def signature(self) -> str:
        """Full content string over every axis (stack descriptions,
        telemetry) — unlike :meth:`cache_signature` this one includes
        ``guard`` and ``trace``."""
        parts = [f"guard={int(self.guard)}", self.cache_signature()]
        if self.trace:
            parts.append("trace")
        return ";".join(parts)

    def layer_names(self) -> tuple[str, ...]:
        """Middleware layers this spec composes, outermost last."""
        names: list[str] = []
        if self.guard:
            names.append("guard")
        if self.supervision is not None:
            names.append("supervision")
        elif self.parallel is not None:
            names.append("parallel")
        if self.workspace != "none":
            names.append("workspace")
        if self.trace:
            names.append("trace")
        return tuple(names)

    # -- serialization --------------------------------------------------

    def to_dict(self) -> dict:
        parallel = None
        if self.parallel is not None:
            parallel = {
                "nthreads": int(self.parallel.nthreads),
                "schedule": self.parallel.schedule,
                "chunk_rows": self.parallel.chunk_rows,
            }
        return {
            "schema_version": ENGINE_SPEC_SCHEMA_VERSION,
            "guard": bool(self.guard),
            "parallel": parallel,
            "supervision": (
                None if self.supervision is None
                else self.supervision.to_dict()
            ),
            "workspace": self.workspace,
            "trace": bool(self.trace),
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "ExecutorSpec":
        version = payload.get("schema_version")
        if version != ENGINE_SPEC_SCHEMA_VERSION:
            raise ValueError(
                f"unsupported executor-spec schema {version!r} "
                f"(this build reads {ENGINE_SPEC_SCHEMA_VERSION})"
            )
        parallel = payload.get("parallel")
        if parallel is not None:
            chunk_rows = parallel.get("chunk_rows")
            parallel = ParallelConfig(
                nthreads=int(parallel["nthreads"]),
                schedule=parallel.get("schedule", "balanced-nnz"),
                chunk_rows=None if chunk_rows is None else int(chunk_rows),
            )
        supervision = payload.get("supervision")
        if supervision is not None:
            supervision = SupervisionSpec.from_dict(supervision)
        return cls(
            guard=bool(payload.get("guard", False)),
            parallel=parallel,
            supervision=supervision,
            workspace=payload.get("workspace", "none"),
            trace=bool(payload.get("trace", False)),
        )

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        layers = "+".join(self.layer_names()) or "kernel-only"
        return f"ExecutorSpec[{layers}]"
