"""Workspace arenas: named, reusable scratch buffers for hot loops.

Some ``matvec``/``matmat``/``apply`` calls need short-lived
intermediates (SELL-C-sigma's permuted output, BCSR's tiles, a
contiguous copy of a strided operand; the compiled CSR kernels need
none). Allocating them per call puts the allocator and the page-fault
handler on the steady-state path of every solver iteration — exactly
the repeat-execution regime the paper's amortization analysis
(Table V) prices. A :class:`Workspace` owns those intermediates
instead: buffers are keyed by ``(name, shape, dtype)``, created once on
first use (a *miss*) and handed back on every subsequent request (a
*hit*), so a repeat execution of the same plan runs with zero new array
allocations.

One arena is attached per reusable execution context: the plan-cache
entry behind an :class:`~repro.core.optimizer.OptimizedSpMV` (repeat
``optimize()`` calls share one), a stack built with a ``workspace``
axis, each parallel executor (one store per thread) and each solver
call. :meth:`Workspace.counters` reports the hit/miss/bytes-held
counters (see docs/performance.md).

Buffers are handed out *dirty* — callers must overwrite or zero them.

Threading: the default arena is single-threaded — two threads asking
for the same ``(name, shape, dtype)`` would receive the *same* array
and corrupt each other's intermediates. The parallel execution plane
(:mod:`repro.parallel`) therefore uses ``Workspace(thread_local=True)``:
each OS thread that calls :meth:`buffer` gets its own private store of
buffers (and its own hit/miss counters), so pool workers reuse scratch
across calls without ever sharing an array. The accounting surface
(``hits``/``misses``/``bytes_held``/``counters``) aggregates over all
per-thread stores. See docs/parallelism.md.
"""

from __future__ import annotations

import threading

import numpy as np

__all__ = ["Workspace"]


class _Store:
    """One thread's private buffer dictionary plus counters."""

    __slots__ = ("buffers", "hits", "misses")

    def __init__(self) -> None:
        self.buffers: dict[tuple, np.ndarray] = {}
        self.hits = 0
        self.misses = 0


class Workspace:
    """Arena of named, shape/dtype-keyed reusable NumPy buffers."""

    __slots__ = ("_shared", "_local", "_stores", "_lock")

    def __init__(self, *, thread_local: bool = False) -> None:
        self._lock = threading.Lock()
        if thread_local:
            self._shared: _Store | None = None
            self._local = threading.local()
            self._stores: list[_Store] = []
        else:
            self._shared = _Store()
            self._local = None
            self._stores = [self._shared]

    @property
    def thread_local(self) -> bool:
        """True when each calling thread owns a private buffer store."""
        return self._shared is None

    def _store(self) -> _Store:
        if self._shared is not None:
            return self._shared
        store = getattr(self._local, "store", None)
        if store is None:
            store = _Store()
            self._local.store = store
            with self._lock:
                self._stores.append(store)
        return store

    def buffer(self, name: str, shape, dtype=np.float64) -> np.ndarray:
        """Return the buffer registered under ``(name, shape, dtype)``.

        The first request allocates (a *miss*); later requests return
        the same array (a *hit*). Contents are undefined on every
        request — treat the buffer as uninitialized scratch. In
        thread-local mode the lookup (and the returned array) is private
        to the calling thread.
        """
        if isinstance(shape, (int, np.integer)):
            shape = (int(shape),)
        else:
            shape = tuple(int(s) for s in shape)
        key = (name, shape, np.dtype(dtype).str)
        store = self._store()
        buf = store.buffers.get(key)
        if buf is None:
            store.misses += 1
            buf = np.empty(shape, dtype=dtype)
            store.buffers[key] = buf
        else:
            store.hits += 1
        return buf

    # -- accounting -----------------------------------------------------

    def _snapshot(self) -> list[_Store]:
        with self._lock:
            return list(self._stores)

    @property
    def hits(self) -> int:
        return sum(s.hits for s in self._snapshot())

    @property
    def misses(self) -> int:
        return sum(s.misses for s in self._snapshot())

    @property
    def nbuffers(self) -> int:
        return sum(len(s.buffers) for s in self._snapshot())

    @property
    def nstores(self) -> int:
        """Number of per-thread buffer stores created so far."""
        return len(self._snapshot())

    def bytes_held(self) -> int:
        """Total bytes currently owned by the arena (all threads)."""
        return int(
            sum(
                b.nbytes
                for s in self._snapshot()
                for b in s.buffers.values()
            )
        )

    @property
    def hit_rate(self) -> float:
        """Fraction of requests served from an existing buffer."""
        hits = self.hits
        total = hits + self.misses
        return hits / total if total else 0.0

    def counters(self) -> dict:
        """JSON-ready counter snapshot (exported into tracer spans)."""
        return {
            "hits": int(self.hits),
            "misses": int(self.misses),
            "hit_rate": float(self.hit_rate),
            "buffers": self.nbuffers,
            "bytes_held": self.bytes_held(),
            "thread_local": bool(self.thread_local),
            "stores": self.nstores,
        }

    def reset_stats(self) -> None:
        """Zero the hit/miss counters (buffers are kept)."""
        for s in self._snapshot():
            s.hits = 0
            s.misses = 0

    def clear(self) -> None:
        """Drop every buffer (in every per-thread store) and reset the
        counters. Per-thread stores stay registered and are reused."""
        for s in self._snapshot():
            s.buffers.clear()
            s.hits = 0
            s.misses = 0

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        mode = " thread-local" if self.thread_local else ""
        return (
            f"<Workspace{mode} {self.nbuffers} buffers "
            f"{self.bytes_held()} B hits={self.hits} "
            f"misses={self.misses}>"
        )
