"""Deterministic fault injection for robustness testing.

The constructors of the formats reject most malformed input up front,
so realistic corruption (bit flips, buggy converters, concurrent
mutation) has to be injected *past* the constructor: every injector
here clones a format instance attribute-by-attribute — bypassing
``__init__`` — then damages exactly one invariant of the clone. The
original is never touched, and a fixed ``seed`` makes every corruption
reproducible.

Three families of faults:

* **structural** (:func:`inject_structural_fault`): pointer arrays made
  non-monotonic or overrunning, index arrays pushed out of bounds or
  negative, parallel arrays truncated to mismatched lengths;
* **value** (:func:`inject_value_fault`): NaN / +-Inf poisoning of the
  numeric payload;
* **stream** (:func:`corrupt_matrix_market`): truncated or malformed
  MatrixMarket text, exercising the reader's typed error paths.

:class:`BrokenKernel` rounds the module out: a kernel wrapper that
misbehaves on demand (raises, poisons its output, or returns the wrong
shape), used to exercise the guarded-execution quarantine.
:class:`ParallelFaultKernel` is its parallel-plane sibling: run by a
:class:`~repro.engine.executor.ParallelExecutor`, it makes the
first K chunk applies crash, hang (a bounded sleep), or poison their
partition — deterministically, whichever pool worker picks the chunk
up — so the supervision/degradation ladder of
:class:`~repro.engine.supervision.SupervisedExecutor` is testable end to
end (see docs/robustness.md).
"""

from __future__ import annotations

import math
import threading
import time

import numpy as np

from ..formats import (
    BCSRMatrix,
    COOMatrix,
    CSRMatrix,
    DecomposedCSR,
    DeltaCSR,
    SellCSigmaMatrix,
    SparseFormat,
)
from ..kernels.base import Kernel

__all__ = [
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

#: All structural corruption kinds understood by
#: :func:`inject_structural_fault` (not every kind applies to every
#: format — see :func:`applicable_faults`).
STRUCTURAL_FAULTS = (
    "pointer-nonmonotonic",
    "pointer-overrun",
    "index-out-of-bounds",
    "index-negative",
    "length-mismatch",
)

#: Value poisoning kinds for :func:`inject_value_fault`.
VALUE_FAULTS = ("nan", "inf", "-inf")

#: Stream corruption kinds for :func:`corrupt_matrix_market`.
#: ``blank-lines`` is the benign control: readers must tolerate it.
MM_FAULTS = (
    "truncate-entries",
    "truncate-mid-line",
    "index-out-of-range",
    "malformed-entry",
    "blank-lines",
)

# Per-format array roles: (pointer attr, index attr, index upper bound
# fn, values attr path). COO has no pointer array.
_POINTER_ATTR = {
    CSRMatrix: "rowptr",
    DeltaCSR: "rowptr",
    BCSRMatrix: "block_rowptr",
    SellCSigmaMatrix: "chunk_ptr",
    DecomposedCSR: "long_rowptr",
    COOMatrix: None,
}
_INDEX_ATTR = {
    CSRMatrix: "colind",
    DeltaCSR: "reset_col",
    BCSRMatrix: "block_colind",
    SellCSigmaMatrix: "colind",
    DecomposedCSR: "long_colind",
    COOMatrix: "cols",
}
_VALUES_PATH = {
    BCSRMatrix: ("block_values",),
    DecomposedCSR: ("short", "values"),
}


#: Lazily built, structure-derived caches of the formats (compiled
#: index pairs, CSR views, apply plans). A clone starts without them.
_DERIVED_CACHES = ("_idx", "_row_ids", "_rm", "_long", "_plan",
                   "_pattern")


def _all_slots(cls) -> tuple[str, ...]:
    slots: list[str] = []
    for klass in cls.__mro__:
        slots.extend(getattr(klass, "__slots__", ()))
    return tuple(dict.fromkeys(slots))


def clone_format(fmt: SparseFormat) -> SparseFormat:
    """Deep-copy a format instance without running its constructor.

    Arrays are copied, nested formats are cloned recursively, and
    derived caches (index pairs, CSR views, apply plans) are dropped so
    a later mutation cannot be masked by stale precomputed state.
    """
    cls = type(fmt)
    clone = object.__new__(cls)
    for slot in _all_slots(cls):
        if not hasattr(fmt, slot):
            continue
        value = getattr(fmt, slot)
        if slot in _DERIVED_CACHES:
            value = None
        elif isinstance(value, np.ndarray):
            value = value.copy()
        elif isinstance(value, SparseFormat):
            value = clone_format(value)
        object.__setattr__(clone, slot, value)
    return clone


def applicable_faults(fmt: SparseFormat) -> tuple[str, ...]:
    """The structural fault kinds that make sense for this *instance*.

    Besides per-format capabilities (COO has no pointer array), faults
    whose target array is empty on this particular matrix are dropped —
    e.g. a decomposed matrix with no long rows has nothing to corrupt
    in its long-part pointer/index arrays.
    """
    kinds = list(STRUCTURAL_FAULTS)
    ptr_attr = _POINTER_ATTR.get(type(fmt))
    if ptr_attr is None:
        kinds = [k for k in kinds if not k.startswith("pointer-")]
    else:
        ptr = getattr(fmt, ptr_attr)
        if ptr.size < 2 or ptr[-1] <= 0:
            kinds = [k for k in kinds if not k.startswith("pointer-")]
    if getattr(fmt, _INDEX_ATTR[type(fmt)]).size == 0:
        kinds = [k for k in kinds if not k.startswith("index-")]
    if _values_array(fmt).shape[0] == 0:
        kinds = [k for k in kinds if k != "length-mismatch"]
    return tuple(kinds)


def _values_array(fmt: SparseFormat) -> np.ndarray:
    target = fmt
    for attr in _VALUES_PATH.get(type(fmt), ("values",))[:-1]:
        target = getattr(target, attr)
    return getattr(target, _VALUES_PATH.get(type(fmt), ("values",))[-1])


def _set_values_array(fmt: SparseFormat, arr: np.ndarray) -> None:
    path = _VALUES_PATH.get(type(fmt), ("values",))
    target = fmt
    for attr in path[:-1]:
        target = getattr(target, attr)
    object.__setattr__(target, path[-1], arr)


def _index_bound(fmt: SparseFormat) -> int:
    if isinstance(fmt, BCSRMatrix):
        return -(-fmt.ncols // fmt.block)
    return fmt.ncols


def inject_structural_fault(fmt: SparseFormat, kind: str,
                            seed: int = 0) -> SparseFormat:
    """Return a copy of ``fmt`` with one structural invariant broken.

    Requires a non-trivial matrix (at least one stored element in the
    array the fault targets); raises ``ValueError`` when ``kind`` is
    unknown or not applicable to this format.
    """
    if kind not in STRUCTURAL_FAULTS:
        raise ValueError(
            f"unknown structural fault {kind!r}; available: "
            f"{STRUCTURAL_FAULTS}"
        )
    if kind not in applicable_faults(fmt):
        raise ValueError(
            f"fault {kind!r} is not applicable to {fmt.format_name}"
        )
    rng = np.random.default_rng(seed)
    clone = clone_format(fmt)

    if kind.startswith("pointer-"):
        ptr = getattr(clone, _POINTER_ATTR[type(fmt)])
        if ptr.size < 2 or ptr[-1] <= 0:
            raise ValueError(
                f"{fmt.format_name} has no pointer entries to corrupt"
            )
        if kind == "pointer-nonmonotonic":
            # Force a strict decrease at a random interior boundary.
            p = int(rng.integers(1, ptr.size))
            ptr[p] = ptr[p - 1] - 1
        else:  # pointer-overrun
            ptr[-1] = ptr[-1] + 7
        return clone

    idx = getattr(clone, _INDEX_ATTR[type(fmt)])
    if kind in ("index-out-of-bounds", "index-negative"):
        if idx.size == 0:
            raise ValueError(
                f"{fmt.format_name} has no index entries to corrupt"
            )
        p = int(rng.integers(0, idx.size))
        idx[p] = _index_bound(fmt) if kind == "index-out-of-bounds" else -1
        return clone

    # length-mismatch: drop the last stored value so parallel arrays
    # disagree on their length.
    values = _values_array(clone)
    if values.shape[0] == 0:
        raise ValueError(f"{fmt.format_name} has no values to truncate")
    _set_values_array(clone, values[:-1])
    return clone


def inject_value_fault(fmt: SparseFormat, kind: str = "nan",
                       position: int | None = None,
                       seed: int = 0) -> SparseFormat:
    """Return a copy of ``fmt`` with one stored value poisoned.

    Without an explicit ``position``, a *stored nonzero* is picked (not
    a padding zero of a blocked/padded layout) — the model is a bit
    flip in real payload data, and it keeps structural invariants like
    BCSR's nonzero accounting intact.
    """
    if kind not in VALUE_FAULTS:
        raise ValueError(
            f"unknown value fault {kind!r}; available: {VALUE_FAULTS}"
        )
    clone = clone_format(fmt)
    values = _values_array(clone)
    flat = values.reshape(-1)
    if flat.size == 0:
        raise ValueError(f"{fmt.format_name} has no values to poison")
    if position is None:
        stored = np.flatnonzero(flat)
        pool = stored if stored.size else np.arange(flat.size)
        position = int(
            pool[np.random.default_rng(seed).integers(0, pool.size)]
        )
    flat[position] = {"nan": np.nan, "inf": np.inf, "-inf": -np.inf}[kind]
    return clone


def corrupt_matrix_market(text: str, kind: str, seed: int = 0) -> str:
    """Return a corrupted copy of MatrixMarket ``text``.

    ``blank-lines`` is the benign variant (readers must accept it);
    every other kind must make :func:`repro.matrices.read_matrix_market`
    raise a :class:`~repro.matrices.mmio.MatrixMarketError`.
    """
    if kind not in MM_FAULTS:
        raise ValueError(
            f"unknown MatrixMarket fault {kind!r}; available: {MM_FAULTS}"
        )
    lines = text.splitlines()
    # Locate the size line: first non-comment line after the header.
    size_at = next(
        i for i in range(1, len(lines)) if not lines[i].startswith("%")
    )
    entries_at = size_at + 1
    n_entries = len(lines) - entries_at
    if n_entries < 1:
        raise ValueError("matrix has no entry lines to corrupt")
    rng = np.random.default_rng(seed)

    if kind == "truncate-entries":
        keep = max(n_entries - max(n_entries // 3, 1), 0)
        lines = lines[: entries_at + keep]
    elif kind == "truncate-mid-line":
        # Cut the last entry mid-token so the line no longer has the
        # full token count (a prefix of the value could still parse).
        lines[-1] = lines[-1].rsplit(None, 1)[0]
    elif kind == "index-out-of-range":
        p = entries_at + int(rng.integers(0, n_entries))
        tokens = lines[p].split()
        tokens[0] = str(10 ** 9)
        lines[p] = " ".join(tokens)
    elif kind == "malformed-entry":
        p = entries_at + int(rng.integers(0, n_entries))
        lines[p] = "1 not-a-number 3.0"
    else:  # blank-lines
        out = lines[:entries_at]
        for line in lines[entries_at:]:
            out.append(line)
            out.append("")
        lines = out
    return "\n".join(lines) + "\n"


class BrokenKernel(Kernel):
    """A kernel variant that misbehaves on demand (test instrument).

    Wraps ``inner`` and, starting from call number ``fail_after``
    (0-based, counted across ``apply`` and ``apply_multi``),

    * ``mode="raise"``   raises ``RuntimeError``,
    * ``mode="nan"``     poisons its first output element with NaN
      (in place, so a caller's ``out=`` buffer holds the NaN),
    * ``mode="shape"``   returns a truncated (wrong-shape) result.
    """

    def __init__(self, inner: Kernel, mode: str = "raise",
                 fail_after: int = 0, name: str | None = None):
        if mode not in ("raise", "nan", "shape"):
            raise ValueError("mode must be 'raise', 'nan' or 'shape'")
        self.inner = inner
        self.mode = mode
        self.fail_after = int(fail_after)
        self.calls = 0
        self.name = name if name is not None else f"broken[{inner.name}]"
        self.optimizations = inner.optimizations
        self.schedule = inner.schedule

    def preprocess(self, csr):
        return self.inner.preprocess(csr)

    def preprocessing_seconds(self, csr, machine):
        return self.inner.preprocessing_seconds(csr, machine)

    def _sabotage(self, out: np.ndarray) -> np.ndarray:
        self.calls += 1
        if self.calls <= self.fail_after:
            return out
        if self.mode == "raise":
            raise RuntimeError("injected kernel fault")
        if self.mode == "nan":
            out.reshape(-1)[0] = np.nan
            return out
        return out[:-1]

    def apply(self, data, x, out=None, workspace=None):
        return self._sabotage(
            self.inner.apply(data, x, out=out, workspace=workspace)
        )

    def apply_multi(self, data, X, out=None, workspace=None):
        return self._sabotage(
            self.inner.apply_multi(data, X, out=out, workspace=workspace)
        )

    def cost(self, data, machine, partition):
        return self.inner.cost(data, machine, partition)

    def partition(self, data, nthreads):
        return self.inner.partition(data, nthreads)


#: Worker-fault kinds injected by :class:`ParallelFaultKernel`.
PARALLEL_FAULTS = ("crash", "hang", "poison")


class ParallelFaultKernel(Kernel):
    """Deterministic worker-fault injector for the parallel plane.

    Hand this to a :class:`~repro.engine.executor.ParallelExecutor`
    (or a :class:`~repro.engine.supervision.SupervisedExecutor`) and
    the first ``fail_applies`` chunk applies — counted globally
    across threads under a lock, so the injection is deterministic no
    matter which pool worker picks a chunk up — misbehave:

    * ``mode="crash"``  raises ``RuntimeError`` (worker crash);
    * ``mode="hang"``   sleeps ``hang_seconds`` before computing (a
      bounded hang the deadline watchdog must catch; the sleep happens
      *outside* the counter lock so healthy workers are not serialized
      behind the hung one);
    * ``mode="poison"`` computes normally, then overwrites the first
      output element with NaN (a poisoned partition: no exception, the
      supervisor's output validation has to find it).

    ``fail_applies=math.inf`` misbehaves forever — every parallel rung
    of the degradation ladder fails and only the serial fallback (which
    bypasses this kernel entirely) survives. ``faults_injected`` and
    ``applies`` expose the counters; :meth:`reset` re-arms the
    injector.
    """

    def __init__(self, inner: Kernel, mode: str = "crash",
                 fail_applies: float = 1, hang_seconds: float = 0.25,
                 name: str | None = None):
        if mode not in PARALLEL_FAULTS:
            raise ValueError(
                f"mode must be one of {PARALLEL_FAULTS}, got {mode!r}"
            )
        if not (fail_applies >= 0):
            raise ValueError(
                f"fail_applies must be >= 0, got {fail_applies}"
            )
        self.inner = inner
        self.mode = mode
        self.fail_applies = (
            math.inf if math.isinf(fail_applies) else int(fail_applies)
        )
        self.hang_seconds = float(hang_seconds)
        self.name = name if name is not None else f"parfault[{inner.name}]"
        self.optimizations = inner.optimizations
        self.schedule = inner.schedule
        self.row_align = int(getattr(inner, "row_align", 1) or 1)
        self._lock = threading.Lock()
        self.applies = 0
        self.faults_injected = 0

    def reset(self) -> None:
        """Re-arm the injector (e.g. between ladder experiments)."""
        with self._lock:
            self.applies = 0
            self.faults_injected = 0

    def _decide(self) -> bool:
        """Atomically count this apply; True when it must misbehave."""
        with self._lock:
            self.applies += 1
            misbehave = self.applies <= self.fail_applies
            if misbehave:
                self.faults_injected += 1
            return misbehave

    def preprocess(self, csr):
        return self.inner.preprocess(csr)

    def preprocessing_seconds(self, csr, machine):
        return self.inner.preprocessing_seconds(csr, machine)

    def _faulty(self, apply_fn, data, x, out, workspace) -> np.ndarray:
        misbehave = self._decide()
        if misbehave and self.mode == "crash":
            raise RuntimeError("injected worker crash")
        if misbehave and self.mode == "hang":
            time.sleep(self.hang_seconds)  # outside the lock
        y = apply_fn(data, x, out=out, workspace=workspace)
        if misbehave and self.mode == "poison":
            y.reshape(-1)[0] = np.nan
        return y

    def apply(self, data, x, out=None, workspace=None):
        return self._faulty(self.inner.apply, data, x, out, workspace)

    def apply_multi(self, data, X, out=None, workspace=None):
        return self._faulty(self.inner.apply_multi, data, X, out,
                            workspace)

    def cost(self, data, machine, partition):
        return self.inner.cost(data, machine, partition)

    def partition(self, data, nthreads):
        return self.inner.partition(data, nthreads)
