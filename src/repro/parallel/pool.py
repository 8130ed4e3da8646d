"""Persistent thread-pool management for the parallel execution plane.

A :class:`~concurrent.futures.ThreadPoolExecutor` is expensive to spin
up relative to one SpMV (thread creation is microseconds-to-
milliseconds; a chunk apply can be tens of microseconds), so executors
are created once per worker count and reused for the life of the
process — the same persistence argument the paper makes for OpenMP's
thread team. Pools are keyed by worker count: a solver iterating at
``nthreads=4`` keeps hitting the same four warm threads. Like OpenMP's
master thread, the caller of a width-``n`` apply without a deadline
runs one slot itself and hands ``n - 1`` tasks to the width-``n``
pool; a task the pool has not started when the caller is done with its
own slot is cancelled and run on the caller, so an apply never waits
for a worker that is busy (even with another apply on the same pool).
An apply with a deadline hands all ``n`` slots to the pool.

Threads (not processes) are the right substrate here because the
kernels' compiled inner loops (scipy's sparsetools CSR loops, NumPy's
block kernels) release the GIL, so row-block workers genuinely
overlap; see docs/parallelism.md.

Pools are additionally *supervised*: a cached executor whose threads
have all died (interpreter-level failures, a stray ``shutdown`` from
test teardown, fork aftermath) is recycled on the next
:func:`get_executor` instead of being handed out broken, the deadline
watchdog retires pools with abandoned hung workers via
:func:`recycle_executor`, and :func:`pool_health` exposes per-pool
liveness for telemetry and tests (see docs/robustness.md).
"""

from __future__ import annotations

import threading
from concurrent.futures import ThreadPoolExecutor

__all__ = [
    "get_executor",
    "shutdown_executors",
    "active_worker_counts",
    "recycle_executor",
    "pool_health",
]

_lock = threading.Lock()
_pools: dict[int, ThreadPoolExecutor] = {}


def _broken(pool: ThreadPoolExecutor) -> bool:
    """True when a cached executor can no longer run work.

    Inspects executor internals (``_shutdown``, ``_threads``): a pool
    is unusable once shut down, or when it has started threads and
    every one of them has died — submitted work would queue forever.
    A fresh pool that has not spawned threads yet (they are created
    lazily on first submit) is healthy.
    """
    if pool._shutdown:
        return True
    threads = list(pool._threads)
    return bool(threads) and not any(t.is_alive() for t in threads)


def _retire(pool: ThreadPoolExecutor) -> None:
    """Shut a pool down without waiting (it may hold hung workers)."""
    try:
        pool.shutdown(wait=False, cancel_futures=True)
    except Exception:  # pragma: no cover - shutdown is best-effort
        pass


def get_executor(nworkers: int) -> ThreadPoolExecutor:
    """Return the shared persistent executor with ``nworkers`` threads.

    A cached executor that went broken since the last call (threads
    dead, or shut down behind our back) is retired and transparently
    replaced with a fresh one — callers never receive a pool that
    silently queues work forever.
    """
    nworkers = int(nworkers)
    if nworkers < 1:
        raise ValueError(f"nworkers must be >= 1, got {nworkers}")
    with _lock:
        pool = _pools.get(nworkers)
        if pool is not None and _broken(pool):
            _retire(pool)
            pool = None
        if pool is None:
            pool = ThreadPoolExecutor(
                max_workers=nworkers,
                thread_name_prefix=f"repro-par{nworkers}",
            )
            _pools[nworkers] = pool
        return pool


def recycle_executor(nworkers: int) -> bool:
    """Force-retire the pooled executor for ``nworkers`` workers.

    Used by the deadline watchdog after abandoning hung chunks: the
    old pool (whose workers may still be stuck inside a chunk) is shut
    down without waiting, and the next :func:`get_executor` at this
    width builds a fresh team. Returns whether a pool existed.
    """
    with _lock:
        pool = _pools.pop(int(nworkers), None)
    if pool is None:
        return False
    _retire(pool)
    return True


def pool_health() -> dict[int, dict]:
    """Liveness snapshot of every pooled executor (telemetry/tests).

    Maps worker count to ``{"expected", "started", "alive",
    "shutdown", "healthy"}`` — ``started`` counts threads the lazy
    executor has actually spawned so far, ``alive`` how many of those
    are still running, and ``healthy`` whether :func:`get_executor`
    would hand this pool out as-is.
    """
    with _lock:
        pools = dict(_pools)
    health: dict[int, dict] = {}
    for n, pool in pools.items():
        threads = list(pool._threads)
        health[n] = {
            "expected": n,
            "started": len(threads),
            "alive": sum(1 for t in threads if t.is_alive()),
            "shutdown": bool(pool._shutdown),
            "healthy": not _broken(pool),
        }
    return health


def shutdown_executors() -> None:
    """Shut down and forget every pooled executor (tests, atexit)."""
    with _lock:
        pools = list(_pools.values())
        _pools.clear()
    for pool in pools:
        pool.shutdown(wait=True)


def active_worker_counts() -> tuple[int, ...]:
    """Worker counts with a live pooled executor (telemetry/tests)."""
    with _lock:
        return tuple(sorted(_pools))
