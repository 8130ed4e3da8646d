"""The adaptive SpMV optimizer — the paper's end-to-end system.

``AdaptiveSpMV`` is a thin composition of the staged planning pipeline
(:mod:`repro.pipeline`): analyze → classify → select → transform, each
stage traced and independently swappable. The stages

1. classify the input matrix's bottlenecks (profile- or feature-guided);
2. map the detected classes to pool optimizations (Table I), jointly;
3. charge the modeled setup (format conversion + JIT codegen) and hand
   back an :class:`OptimizedSpMV` that is both numerically executable
   (``matvec`` / batched ``matmat``, through its plan's execution
   stack) and performance-simulatable (``simulate``), with its full
   setup-cost accounting attached.

The decision is frozen into an :class:`OptimizationPlan` — a
serializable IR (``to_dict``/``from_dict``, schema-versioned) — and
repeat structures are served from a :class:`PlanCache`. Its key is
exact: an O(1) hash (shape, nnz and a crc32 of strided ``rowptr``/
``colind`` samples) finds the entry, and ``np.array_equal`` against
index arrays the entry owns confirms it, so the Table V amortization
overhead of a recurring operator drops to ~zero without hashing the
matrix. Every hit runs ``kernel.preprocess`` on the caller's matrix,
so the operator always computes with the caller's arrays. Caches
persist across processes (``PlanCache.save``/``load``): a
warm-started optimizer serves its first request at zero decision cost,
visible in ``OptimizationPlan.decision_seconds``.
"""

from __future__ import annotations

import json
import threading
import warnings
import zlib
from collections import OrderedDict
from dataclasses import dataclass, field, replace

import numpy as np

from ..engine.spec import ExecutorSpec
from ..errors import PlanCacheWarning
from ..formats import CSRMatrix
from ..kernels import (
    ConfiguredSpMV,
    baseline_kernel,
    is_quarantined,
    merged_pool_kernel,
)
from ..machine import MachineSpec, RunResult
from ..memory import Workspace
from ..model import AnalyticModel
from ..model.signature import (
    body_checksum as _body_checksum,
    matrix_fingerprint,
    write_checksummed,
)
from ..pipeline import (
    PipelineContext,
    Tracer,
    default_planning_stages,
    run_stages,
)
from .classes import Bottleneck, ClassSet, format_classes
from .feature_classifier import FeatureGuidedClassifier
from .pool import DEFAULT_POOL, OptimizationPool
from .profile_classifier import ProfileGuidedClassifier

__all__ = [
    "PLAN_SCHEMA_VERSION",
    "CACHE_SCHEMA_VERSION",
    "OptimizationPlan",
    "OptimizedSpMV",
    "AdaptiveSpMV",
    "PlanCache",
    "matrix_fingerprint",
    "plan_cache_load_recoveries",
    "reset_plan_cache_load_recoveries",
]

#: Version of the serialized :class:`OptimizationPlan` IR. v2 added the
#: ``executor_spec`` field (:class:`~repro.engine.ExecutorSpec`); v3
#: adds ``cost_model`` (which :class:`~repro.model.base.CostModel`
#: signature the decision was made under).
#: :meth:`OptimizationPlan.from_dict` reads only this version; a cache
#: holding older plans loads as an empty cache (see
#: :meth:`PlanCache.load`) and the optimizer replans.
PLAN_SCHEMA_VERSION = 3

#: Version of the :meth:`PlanCache.save` file layout. v2 wraps the v1
#: payload in a ``{"checksum", "body"}`` envelope and is written
#: atomically (temp file + rename); see docs/robustness.md. v3 stores
#: each key's structure as a :class:`_StructureKey` record (shape, nnz,
#: crc32, fingerprint) and names the cost model in every key.
CACHE_SCHEMA_VERSION = 3


_recovery_lock = threading.Lock()
_load_recoveries = 0


def plan_cache_load_recoveries() -> int:
    """How many :meth:`PlanCache.load` calls degraded to an empty cache
    (truncated/corrupted/checksum-mismatched/old-schema file) since the
    process started or the counter was last reset."""
    with _recovery_lock:
        return _load_recoveries


def reset_plan_cache_load_recoveries() -> None:
    """Zero the load-recovery counter (tests, operator reset)."""
    global _load_recoveries
    with _recovery_lock:
        _load_recoveries = 0


def _count_load_recovery() -> None:
    global _load_recoveries
    with _recovery_lock:
        _load_recoveries += 1


#: Elements of each index array sampled into a structure key's hash.
_HASH_SAMPLES = 64


def _structure_hash(csr) -> int:
    """O(1) hash of a matrix structure: ``zlib.crc32`` over shape, nnz
    and fixed-size strided samples of ``rowptr`` and ``colind``, all as
    little-endian int64, so it is the same in every process, platform
    and Python version (keys persist it)."""
    nrows, ncols = csr.shape
    crc = zlib.crc32(np.array([nrows, ncols, csr.nnz], dtype="<i8"))
    for arr in (csr.rowptr, csr.colind):
        step = max(1, arr.size // _HASH_SAMPLES)
        crc = zlib.crc32(np.ascontiguousarray(arr[::step], dtype="<i8"),
                         crc)
    return crc


class _StructureKey:
    """Exact structural identity of a CSR matrix, the first component
    of every plan-cache key.

    The hash is :func:`_structure_hash`; equality is ``np.array_equal``
    of ``rowptr`` and ``colind``. A key built for a lookup references
    the caller's arrays; the key a :class:`PlanCache` stores owns
    read-only copies (:meth:`owned`), so neither a hash collision nor an
    in-place edit of the caller's structure can serve a wrong plan. A
    key revived from disk holds no arrays, only the
    :func:`~repro.model.signature.matrix_fingerprint` of the structure
    it was saved from, and matches by fingerprint until its first hit
    re-keys the entry (:meth:`PlanCache.get`).
    """

    __slots__ = ("shape", "nnz", "crc", "rowptr", "colind", "_fingerprint")

    def __init__(self, shape, nnz, crc, rowptr=None, colind=None,
                 fingerprint=None):
        self.shape = shape
        self.nnz = nnz
        self.crc = crc
        self.rowptr = rowptr
        self.colind = colind
        self._fingerprint = fingerprint

    @classmethod
    def of(cls, csr) -> "_StructureKey":
        """Lookup key referencing ``csr``'s index arrays (no copy)."""
        return cls(csr.shape, csr.nnz, _structure_hash(csr), csr.rowptr,
                   csr.colind)

    def owned(self) -> "_StructureKey":
        """The same key over private read-only copies of the arrays."""
        rowptr, colind = self.rowptr.copy(), self.colind.copy()
        rowptr.flags.writeable = colind.flags.writeable = False
        return _StructureKey(self.shape, self.nnz, self.crc, rowptr, colind)

    def fingerprint(self) -> str:
        """blake2b content fingerprint (persisted keys; computed once)."""
        if self._fingerprint is None:
            self._fingerprint = matrix_fingerprint(self)
        return self._fingerprint

    def __hash__(self) -> int:
        return self.crc

    def __eq__(self, other) -> bool:
        if self is other:
            return True
        if not isinstance(other, _StructureKey):
            return NotImplemented
        if (self.crc, self.shape, self.nnz) != (
                other.crc, other.shape, other.nnz):
            return False
        if self.rowptr is None or other.rowptr is None:
            return self.fingerprint() == other.fingerprint()
        return (np.array_equal(self.rowptr, other.rowptr)
                and np.array_equal(self.colind, other.colind))

    def to_dict(self) -> dict:
        return {"shape": list(self.shape), "nnz": self.nnz,
                "crc32": self.crc, "fingerprint": self.fingerprint()}

    @classmethod
    def from_dict(cls, payload: dict) -> "_StructureKey":
        nrows, ncols = payload["shape"]
        return cls((int(nrows), int(ncols)), int(payload["nnz"]),
                   int(payload["crc32"]),
                   fingerprint=str(payload["fingerprint"]))


def _owned_key(key: tuple) -> tuple:
    """``key`` with its structure component owning its arrays."""
    if isinstance(key[0], _StructureKey):
        return (key[0].owned(),) + key[1:]
    return key


@dataclass
class _CacheEntry:
    """One cached decision: the plan and the configured kernel.

    ``values`` is the values array last served from the entry, kept by
    reference for setup accounting only: a hit with the same array, or
    an equal one, charges no setup.

    The entry also owns a :class:`~repro.memory.workspace.Workspace`
    arena so repeat service of the same structure reuses the scratch
    buffers of previous applies — the numeric plane of a cache hit runs
    allocation-free in steady state."""

    plan: "OptimizationPlan"
    kernel: ConfiguredSpMV
    values: np.ndarray | None = None
    workspace: Workspace | None = None

    def arena(self) -> Workspace:
        if self.workspace is None:
            self.workspace = Workspace()
        return self.workspace


def _kernel_from_plan(plan: "OptimizationPlan"):
    """Reconstruct a plan's kernel from its optimization names.

    Used when a cache entry is revived from disk: the configuration is
    fully determined by the (deterministic) optimization name list, so
    the rebuilt kernel is numerically identical to the one originally
    planned. A plan that recorded a quarantine substitution already
    runs the baseline.
    """
    if plan.quarantined or not plan.optimizations:
        return baseline_kernel()
    return merged_pool_kernel(plan.optimizations)


class PlanCache:
    """LRU cache of optimization plans keyed by exact matrix structure.

    A key is a tuple whose first component is a :class:`_StructureKey`:
    its O(1) hash finds the entry and an exact comparison of
    ``rowptr``/``colind`` against copies the stored key owns confirms
    it. The copies are made only when :meth:`store` inserts a new key
    or a key loaded from disk first hits.
    A structural hit skips classification entirely
    (``decision_seconds`` reported as 0); the optimizer then runs the
    kernel's ``preprocess`` on the caller's matrix, and charges its
    modeled setup only when the values differ from the array last
    served from the entry. Instances can be shared between
    :class:`AdaptiveSpMV` optimizers to pool their decisions.

    All mutating operations take an internal lock, so one cache can be
    shared between optimizers running on different threads; the
    ``evictions`` / ``invalidations`` counters (visible in ``repr``)
    track LRU pressure and quarantine-driven entry drops respectively.

    Caches survive processes: :meth:`save` writes every entry's plan IR
    (keys + serialized :class:`OptimizationPlan`) as JSON, each key's
    structure as shape, nnz, hash and blake2b
    :func:`~repro.model.signature.matrix_fingerprint`, and :meth:`load`
    revives them with kernels rebuilt from the plan's optimization
    names. A revived key matches by fingerprint; its first hit re-keys
    the entry with owned copies, so later hits never hash. The first
    ``optimize()`` of a revived entry re-charges setup but pays zero
    decision cost, which is the expensive half of Table V.
    """

    def __init__(self, maxsize: int = 32):
        if maxsize < 1:
            raise ValueError("maxsize must be >= 1")
        self.maxsize = int(maxsize)
        # key -> (the stored key object, entry): a hit moves the
        # stored key, so the exact comparison runs once per lookup.
        self._entries: OrderedDict[tuple, tuple] = OrderedDict()
        self._lock = threading.RLock()
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.invalidations = 0
        #: why :meth:`load` degraded to this empty cache (None when the
        #: cache was built normally or loaded cleanly).
        self.load_recovery_reason: str | None = None

    def get(self, key: tuple) -> _CacheEntry | None:
        with self._lock:
            found = self._entries.get(key)
            if found is None:
                self.misses += 1
                return None
            self.hits += 1
            stored, entry = found
            head = stored[0]
            if isinstance(head, _StructureKey) and head.rowptr is None:
                # A key loaded from disk matched by fingerprint: re-key
                # the entry with owned copies, so later hits never hash.
                del self._entries[stored]
                stored = _owned_key(key)
                self._entries[stored] = (stored, entry)
            else:
                self._entries.move_to_end(stored)
            return entry

    def store(self, key: tuple, entry: _CacheEntry) -> None:
        """Insert or replace ``key``'s entry. A new key is stored with
        owned copies of its structure; replacing keeps the stored key."""
        with self._lock:
            found = self._entries.get(key)
            stored = _owned_key(key) if found is None else found[0]
            self._entries[stored] = (stored, entry)
            self._entries.move_to_end(stored)
            while len(self._entries) > self.maxsize:
                self._entries.popitem(last=False)
                self.evictions += 1

    def invalidate(self, key: tuple) -> bool:
        """Drop one entry (quarantined kernel); returns whether the key
        was present."""
        with self._lock:
            present = self._entries.pop(key, None) is not None
            if present:
                self.invalidations += 1
            return present

    def clear(self) -> None:
        """Drop every entry. Counters are kept — a clear is an
        operational event, not a statistical reset; see
        :meth:`reset_stats`."""
        with self._lock:
            self._entries.clear()

    def reset_stats(self) -> None:
        """Zero the hit/miss/eviction/invalidation counters."""
        with self._lock:
            self.hits = 0
            self.misses = 0
            self.evictions = 0
            self.invalidations = 0

    # -- persistence ---------------------------------------------------

    def save(self, path) -> int:
        """Serialize every entry's key + plan IR as JSON at ``path``,
        crash-safely.

        The write goes through
        :func:`~repro.model.signature.write_checksummed`: it is atomic
        (a same-directory temp file, fsynced, then ``os.replace``d over
        ``path``), so a crash mid-save leaves either the old complete
        file or the new complete file — never a truncated hybrid, and
        never a stray partial. The envelope carries a blake2b checksum
        of the canonicalized body so :meth:`load` can detect silent
        on-disk corruption.

        Each key's structure is written as :meth:`_StructureKey.to_dict`,
        whose blake2b fingerprint is computed here, once per key, from
        the arrays the key owns. Kernel objects are not serialized (they
        are cheap to rebuild and process-local); loading restores
        zero-decision-cost service. Returns the number of entries
        written.
        """
        with self._lock:
            entries = [
                {"key": [key[0].to_dict(), *key[1:]],
                 "plan": entry.plan.to_dict()}
                for key, entry in self._entries.values()
            ]
        write_checksummed(path, {
            "schema_version": CACHE_SCHEMA_VERSION,
            "maxsize": self.maxsize,
            "entries": entries,
        })
        return len(entries)

    @classmethod
    def load(cls, path, maxsize: int | None = None, *,
             strict: bool = False) -> "PlanCache":
        """Revive a cache written by :meth:`save`.

        Kernels are rebuilt from each plan's optimization names
        (deterministic, so numerics are bit-identical to the original
        planning); entries whose kernel has been quarantined *since*
        the save are dropped on lookup exactly like live entries.

        An unusable file — truncated, corrupted at any byte offset,
        checksum-mismatched, or of any schema version but
        :data:`CACHE_SCHEMA_VERSION` — does **not** raise by default:
        load degrades to an *empty* cache (plans are an optimization,
        not state a serving process can refuse to start without),
        emits a :class:`~repro.errors.PlanCacheWarning`, bumps the
        module-level :func:`plan_cache_load_recoveries` counter and
        records the reason on the returned cache as
        ``load_recovery_reason``.
        ``strict=True`` restores raising (``ValueError``) for tools
        that would rather fail than silently replan. A *missing* file
        still raises ``FileNotFoundError`` either way — that is a
        caller error, not corruption.
        """

        def recovered(reason: str) -> "PlanCache":
            if strict:
                raise ValueError(f"plan cache {path!r} unusable: {reason}")
            _count_load_recovery()
            warnings.warn(
                f"plan cache {path!r} unusable ({reason}); "
                f"serving from an empty cache",
                PlanCacheWarning,
                stacklevel=2,
            )
            cache = cls(maxsize=maxsize or 32)
            cache.load_recovery_reason = reason
            return cache

        with open(path) as fh:
            text = fh.read()
        try:
            payload = json.loads(text)
        except ValueError as exc:
            return recovered(f"not parseable as JSON ({exc})")
        if not isinstance(payload, dict):
            return recovered("payload is not a JSON object")
        if "checksum" not in payload or "body" not in payload:
            if "schema_version" in payload:
                return recovered(
                    f"unsupported plan-cache schema "
                    f"{payload.get('schema_version')!r} without checksum "
                    f"envelope (this build reads {CACHE_SCHEMA_VERSION})"
                )
            return recovered("missing checksum/body envelope")
        body = payload["body"]
        if not isinstance(body, dict):
            return recovered("body is not a JSON object")
        if _body_checksum(body) != payload["checksum"]:
            return recovered("checksum mismatch (file corrupted on disk)")
        version = body.get("schema_version")
        if version != CACHE_SCHEMA_VERSION:
            return recovered(
                f"unsupported plan-cache schema {version!r} "
                f"(this build reads {CACHE_SCHEMA_VERSION})"
            )
        cache = cls(maxsize=maxsize or int(body.get("maxsize", 32)))
        try:
            for item in body.get("entries", []):
                plan = OptimizationPlan.from_dict(item["plan"])
                # A revived plan must not claim its previous hit status.
                plan = replace(plan, cache_hit=False)
                structure, *rest = item["key"]
                key = (_StructureKey.from_dict(structure), *rest)
                cache._entries[key] = (
                    key, _CacheEntry(plan, _kernel_from_plan(plan))
                )
        except Exception as exc:  # checksum passed but IR is invalid
            return recovered(
                f"invalid entry ({type(exc).__name__}: {exc})"
            )
        return cache

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"<PlanCache {len(self)}/{self.maxsize} "
            f"hits={self.hits} misses={self.misses} "
            f"evictions={self.evictions} "
            f"invalidations={self.invalidations}>"
        )


@dataclass(frozen=True)
class OptimizationPlan:
    """What the optimizer decided for one matrix, and what it cost.

    The plan doubles as a serializable IR: :meth:`to_dict` /
    :meth:`from_dict` round-trip every field under
    :data:`PLAN_SCHEMA_VERSION`, which is what :meth:`PlanCache.save`
    persists.
    """

    classes: ClassSet
    optimizations: tuple[str, ...]
    kernel_name: str
    decision_seconds: float      # classification (profiling / features)
    setup_seconds: float         # conversion + JIT codegen
    classifier_kind: str
    cache_hit: bool = False      # served from a PlanCache?
    quarantined: tuple[str, ...] = ()  # variants skipped as quarantined
    #: how the planned kernel executes (:class:`~repro.engine.
    #: ExecutorSpec`): which middleware layers wrap it and with what
    #: configuration. Serialized with the plan, so a warm-started cache
    #: entry rebuilds the exact same stack in a fresh process.
    executor_spec: ExecutorSpec = field(default_factory=ExecutorSpec)
    #: signature of the :class:`~repro.model.base.CostModel` the
    #: decision was made under ("analytic", or
    #: "calibrated:<profile digest>").
    cost_model: str = "analytic"

    @property
    def total_overhead_seconds(self) -> float:
        """Full optimizer overhead, the ``t_pre`` of paper Table V."""
        return self.decision_seconds + self.setup_seconds

    def to_dict(self) -> dict:
        """Serialize to the schema-versioned plan IR."""
        return {
            "schema_version": PLAN_SCHEMA_VERSION,
            "classes": sorted(c.value for c in self.classes),
            "optimizations": list(self.optimizations),
            "kernel_name": self.kernel_name,
            "decision_seconds": float(self.decision_seconds),
            "setup_seconds": float(self.setup_seconds),
            "classifier_kind": self.classifier_kind,
            "cache_hit": bool(self.cache_hit),
            "quarantined": list(self.quarantined),
            "executor_spec": self.executor_spec.to_dict(),
            "cost_model": self.cost_model,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "OptimizationPlan":
        """Inverse of :meth:`to_dict`; rejects any schema version other
        than :data:`PLAN_SCHEMA_VERSION`."""
        version = payload.get("schema_version")
        if version != PLAN_SCHEMA_VERSION:
            raise ValueError(
                f"unsupported plan schema {version!r} "
                f"(this build reads {PLAN_SCHEMA_VERSION})"
            )
        return cls(
            executor_spec=ExecutorSpec.from_dict(payload["executor_spec"]),
            cost_model=payload["cost_model"],
            classes=frozenset(
                Bottleneck(v) for v in payload["classes"]
            ),
            optimizations=tuple(payload["optimizations"]),
            kernel_name=payload["kernel_name"],
            decision_seconds=float(payload["decision_seconds"]),
            setup_seconds=float(payload["setup_seconds"]),
            classifier_kind=payload["classifier_kind"],
            cache_hit=bool(payload.get("cache_hit", False)),
            quarantined=tuple(payload.get("quarantined", ())),
        )

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        opts = "+".join(self.optimizations) if self.optimizations else "none"
        return (
            f"classes={format_classes(self.classes)} opts={opts} "
            f"overhead={1e3 * self.total_overhead_seconds:.2f}ms"
        )


@dataclass
class OptimizedSpMV:
    """A ready-to-run optimized SpMV operator.

    ``kernel`` and ``data`` are the plain planned kernel and its
    preprocessed data; ``matvec``, ``matmat`` and ``@`` apply through
    the stack of the plan's :class:`~repro.engine.ExecutorSpec`
    (:meth:`executor`)."""

    csr: CSRMatrix
    kernel: ConfiguredSpMV
    data: object
    machine: MachineSpec
    plan: OptimizationPlan
    #: scratch arena reused across applies; shared with the plan-cache
    #: entry that produced this operator, so repeat service keeps its
    #: warm buffers.
    workspace: Workspace = field(default_factory=Workspace, repr=False)
    #: the :class:`~repro.model.base.CostModel` predictions run through
    #: (None falls back to a fresh analytic model on first use).
    model: object | None = field(default=None, repr=False)
    _stack: object | None = field(default=None, init=False, repr=False)

    @property
    def shape(self) -> tuple[int, int]:
        return self.csr.shape

    def executor(self, spec: ExecutorSpec | None = None, *, tracer=None):
        """The engine stack that runs the planned kernel.

        Without arguments: the stack of the plan's own
        :class:`~repro.engine.ExecutorSpec`, built on first use over
        this operator's warm workspace arena and kept; ``matvec`` runs
        it. ``spec=`` or ``tracer=`` compose a separate stack over the
        same planned kernel and data.
        """
        own = spec is None and tracer is None
        if own and self._stack is not None:
            return self._stack
        from ..engine import build_executor

        if spec is None:
            spec = self.plan.executor_spec
        arena = self.workspace
        if spec.workspace == "thread-local" and not arena.thread_local:
            # The operator's warm arena is single-threaded; a spec that
            # asks for thread-local isolation gets a fresh arena rather
            # than a silently-shared one.
            arena = None
        stack = build_executor(self.csr, spec, kernel=self.kernel,
                               data=self.data, tracer=tracer,
                               workspace=arena)
        if own:
            self._stack = stack
        return stack

    def matvec(self, x: np.ndarray,
               out: np.ndarray | None = None) -> np.ndarray:
        """Numerically compute ``A @ x`` through the plan's stack.

        With ``out=`` the result lands in the caller-owned buffer and,
        after a warm-up apply populates the operator's workspace, the
        steady state allocates no new arrays."""
        return self.executor().apply(x, out=out)

    def matmat(self, X: np.ndarray,
               out: np.ndarray | None = None) -> np.ndarray:
        """Batched ``A @ X`` for ``X`` of shape ``(ncols, k)`` through
        the plan's stack."""
        return self.executor().apply_multi(X, out=out)

    def __matmul__(self, x: np.ndarray) -> np.ndarray:
        return self.executor() @ x

    def simulate(self, nthreads: int | None = None) -> RunResult:
        """Predicted execution of the planned kernel on the target
        machine, through the operator's cost model (calibrated when
        planned that way).

        ``nthreads=None`` means the machine's full thread count — the
        pre-model default — independent of the model's own default, so
        operators planned at a reduced thread count keep reporting the
        same headline number they always did.
        """
        if self.model is None:
            self.model = AnalyticModel(self.machine)
        if nthreads is None:
            nthreads = self.machine.total_threads
        return self.model.run(self.kernel, self.data, nthreads=nthreads)


class AdaptiveSpMV:
    """Matrix- and architecture-adaptive SpMV optimizer.

    Parameters
    ----------
    machine
        Target platform specification.
    classifier
        ``"profile"`` for the online profile-guided classifier, or a
        trained :class:`FeatureGuidedClassifier`/custom object with
        ``classify_with_cost(csr) -> (classes, seconds)``.
    pool
        Optimization pool (class -> optimization mapping).
    plan_cache
        ``None`` (default) gives the optimizer a private
        :class:`PlanCache`; pass a shared :class:`PlanCache` (possibly
        revived via :meth:`PlanCache.load`) to pool decisions across
        optimizers or warm-start across processes, or ``False`` to
        disable caching.
    spec
        The :class:`~repro.engine.ExecutorSpec` every built plan
        carries (``plan.executor_spec``; default: a bare serial stack).
        The optimizer plans and caches plain kernels; each operator's
        :meth:`OptimizedSpMV.executor` applies the spec, guard
        included. Its parallel, supervision and workspace axes
        partition the plan-cache keys; its guard and trace axes do not,
        so guarded and unguarded optimizers share entries. Whatever the
        spec, the optimizer never *plans* an already-quarantined
        variant (it substitutes the baseline kernel and notes the
        skipped name in ``OptimizationPlan.quarantined``), and cached
        entries whose kernel has since been quarantined are invalidated
        on lookup.
    stages
        The planning pipeline to compose (default:
        :func:`~repro.pipeline.stages.default_planning_stages`, i.e.
        analyze → classify → select → transform). Replace or extend to
        swap individual stages without touching the others.
    model
        The :class:`~repro.model.base.CostModel` every prediction in
        the pipeline runs through (default: a fresh
        :class:`~repro.model.AnalyticModel`, the pure simulator). Pass
        a :class:`~repro.model.CalibratedModel` to classify, select and
        predict against host-calibrated estimates. The model's
        signature folds into the cache keys, so recalibration
        invalidates stale plans.
    """

    def __init__(
        self,
        machine: MachineSpec,
        classifier="profile",
        pool: OptimizationPool | None = None,
        nthreads: int | None = None,
        plan_cache: "PlanCache | None | bool" = None,
        stages=None,
        spec: ExecutorSpec | None = None,
        model=None,
    ):
        self.machine = machine
        self.pool = pool or DEFAULT_POOL
        self.nthreads = nthreads
        if model is None:
            model = AnalyticModel(machine, nthreads)
        elif model.machine is not machine and model.machine.name != machine.name:
            raise ValueError(
                f"model targets machine {model.machine.name!r}, "
                f"optimizer targets {machine.name!r}"
            )
        #: the :class:`~repro.model.base.CostModel` behind every
        #: prediction this optimizer makes.
        self.model = model
        if spec is None:
            spec = ExecutorSpec()
        elif not isinstance(spec, ExecutorSpec):
            raise TypeError(
                "spec must be a repro.engine.ExecutorSpec, got "
                f"{type(spec).__name__}"
            )
        #: the :class:`~repro.engine.ExecutorSpec` recorded on every
        #: plan this optimizer builds; its parallel/supervision/
        #: workspace axes partition the plan-cache keys.
        self.spec = spec
        self.stages = (
            tuple(stages) if stages is not None
            else default_planning_stages()
        )
        if plan_cache is None:
            self.plan_cache: PlanCache | None = PlanCache()
        elif plan_cache is False:
            self.plan_cache = None
        elif isinstance(plan_cache, PlanCache):
            self.plan_cache = plan_cache
        else:
            raise TypeError(
                "plan_cache must be a PlanCache, None, or False"
            )
        if classifier == "profile":
            self._classifier = ProfileGuidedClassifier(
                machine, nthreads=nthreads, model=self.model
            )
            self.classifier_kind = "profile-guided"
        elif isinstance(classifier, FeatureGuidedClassifier):
            self._classifier = classifier
            self.classifier_kind = "feature-guided"
        elif hasattr(classifier, "classify_with_cost"):
            self._classifier = classifier
            self.classifier_kind = type(classifier).__name__
        else:
            raise TypeError(
                "classifier must be 'profile', a FeatureGuidedClassifier, "
                "or provide classify_with_cost()"
            )

    def _cache_key(self, structure) -> tuple:
        """Cache key: the decision depends on the matrix structure, the
        target machine, the classifier and the pool mapping.

        ``structure`` is the matrix's :class:`_StructureKey`. Every
        other component is a *content* string — no object identities —
        so keys are stable across processes and safe to persist
        (:meth:`PlanCache.save`). The pool contributes its
        :meth:`~repro.core.pool.OptimizationPool.content_signature`;
        the execution configuration (``nthreads`` plus the parallel
        plane's :meth:`~repro.parallel.ParallelConfig.signature`)
        contributes the final component, so plans tuned for one thread
        count / schedule policy are never served for another.
        """
        return (
            structure,
            self.machine.name,
            self.classifier_kind,
            self.pool.content_signature(),
            self._execution_signature(),
        )

    def _execution_signature(self) -> str:
        """Content string of the execution configuration axis.

        Delegates to :meth:`~repro.engine.ExecutorSpec.cache_signature`,
        which excludes the guard/trace axes (entries hold plain
        kernels; tracing is observability), and appends the cost
        model's :meth:`~repro.model.base.CostModel.signature`, so a
        calibrated model's profile digest partitions the cache and
        recalibration invalidates stale plans.
        """
        nthreads = "default" if self.nthreads is None else int(self.nthreads)
        return (f"nthreads={nthreads};{self.spec.cache_signature()};"
                f"model={self.model.signature()}")

    def _run_stages(self, csr: CSRMatrix, materialize: bool,
                    tracer: Tracer) -> PipelineContext:
        """Run the planning pipeline over a fresh context."""
        ctx = PipelineContext(
            csr=csr,
            machine=self.machine,
            classifier=self._classifier,
            classifier_kind=self.classifier_kind,
            pool=self.pool,
            materialize=materialize,
            spec=self.spec,
            model=self.model,
            tracer=tracer,
        )
        return run_stages(self.stages, ctx)

    def _lookup(self, csr: CSRMatrix, tracer: Tracer | None = None):
        """Return ``(key, entry)`` for ``csr``; both None with caching off.

        A cached entry whose kernel has since been quarantined is stale:
        it is invalidated here and reported as a miss so the plan is
        redone against the current quarantine list. A lookup never
        writes an entry: entries hold the plain planned kernel whatever
        the spec of the optimizer that stored them.
        """
        if self.plan_cache is None:
            return None, None
        key = self._cache_key(_StructureKey.of(csr))
        entry = self.plan_cache.get(key)
        invalidated = False
        if (
            entry is not None
            and entry.plan.optimizations
            and is_quarantined(entry.kernel.name)
        ):
            self.plan_cache.invalidate(key)
            entry = None
            invalidated = True
        if tracer is not None:
            tracer.record(
                "cache",
                hit=entry is not None,
                invalidated_stale=invalidated,
                structure=f"{key[0].crc:08x}",
            )
        return key, entry

    def plan(self, csr: CSRMatrix,
             tracer: Tracer | None = None) -> OptimizationPlan:
        """Classify and select optimizations without converting data.

        Pass a :class:`~repro.pipeline.tracer.Tracer` to receive one
        span per pipeline stage (the ``repro-spmv plan --explain``
        breakdown); the spans' ``charged_seconds`` sum to the returned
        plan's ``total_overhead_seconds``.
        """
        own_tracer = tracer if tracer is not None else Tracer()
        key, entry = self._lookup(csr, own_tracer)
        if entry is not None:
            # A hit carries *this* optimizer's spec: the cached
            # decision is shared by optimizers whose specs differ only
            # in the guard and trace axes.
            plan = replace(entry.plan, decision_seconds=0.0,
                           cache_hit=True, executor_spec=self.spec)
            # The retained setup forecast is charged to the cache span
            # so traced stage totals always match the plan.
            own_tracer.spans[-1].charged_seconds = plan.setup_seconds
            return plan
        ctx = self._run_stages(csr, materialize=False, tracer=own_tracer)
        plan = ctx.build_plan()
        if key is not None:
            self.plan_cache.store(key, _CacheEntry(plan, ctx.kernel))
        return plan

    def optimize(self, csr: CSRMatrix,
                 tracer: Tracer | None = None) -> OptimizedSpMV:
        """Full pipeline: classify, select, preprocess, return operator.

        Repeat structures are served from the plan cache: a hit skips
        classification (``decision_seconds == 0``) and runs the planned
        kernel's ``preprocess`` on ``csr`` itself, so the operator
        always computes with the caller's arrays. The modeled setup is
        charged only when ``csr.values`` is neither the array last
        served from the entry nor equal to it; otherwise
        ``setup_seconds == 0`` and the operator is ready at zero
        amortization overhead.
        """
        own_tracer = tracer if tracer is not None else Tracer()
        key, entry = self._lookup(csr, own_tracer)
        if entry is not None:
            kernel = entry.kernel
            served = entry.values
            if served is csr.values or (
                    served is not None
                    and np.array_equal(served, csr.values)):
                setup = 0.0
                data = kernel.preprocess(csr)
            else:
                # New values: the decision is free but the modeled
                # conversion stays charged.
                with own_tracer.span("transform", kernel=kernel.name,
                                     materialized=True) as span:
                    data = kernel.preprocess(csr)
                    setup = span.charged_seconds = entry.plan.setup_seconds
            entry.values = csr.values
            plan = replace(entry.plan, decision_seconds=0.0,
                           setup_seconds=setup, cache_hit=True,
                           executor_spec=self.spec)
            return OptimizedSpMV(
                csr=csr, kernel=kernel, data=data,
                machine=self.machine, plan=plan,
                workspace=entry.arena(),
                model=self.model,
            )
        ctx = self._run_stages(csr, materialize=True, tracer=own_tracer)
        plan = ctx.build_plan()
        entry = _CacheEntry(plan, ctx.kernel, csr.values)
        if key is not None:
            self.plan_cache.store(key, entry)
        return OptimizedSpMV(
            csr=csr,
            kernel=ctx.kernel,
            data=ctx.data,
            machine=self.machine,
            plan=plan,
            workspace=entry.arena(),
            model=self.model,
        )
