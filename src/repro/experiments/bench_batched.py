"""Steady-state allocation telemetry for one apply.

Not a paper artifact: :func:`measure_steady_allocs` backs the
``memory.steady_allocs`` / ``memory.steady_peak_kb`` metrics of the
repo benchmark (``python3 bench/run.py --trace 1``) and the
zero-allocation assertions in ``tests/perf/test_zero_alloc.py``.
"""

from __future__ import annotations

import tracemalloc

__all__ = ["measure_steady_allocs"]


def measure_steady_allocs(fn, *, min_block_bytes: int = 4096) -> dict:
    """Allocation telemetry of one ``fn()`` call under ``tracemalloc``.

    Returns ``{"count": retained array-sized blocks, "peak_bytes":
    transient high-water mark over the pre-call level}``. ``count``
    sees blocks still alive after the call (reused workspace buffers
    never appear); ``peak_bytes`` also catches temporaries that were
    freed before returning, so a zero-allocation steady state shows
    ``count == 0`` *and* a peak well under one iteration vector.
    """
    was_tracing = tracemalloc.is_tracing()
    if not was_tracing:
        tracemalloc.start()
    try:
        before = tracemalloc.take_snapshot()
        current, _ = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        fn()
        _, peak = tracemalloc.get_traced_memory()
        after = tracemalloc.take_snapshot()
    finally:
        if not was_tracing:
            tracemalloc.stop()
    count = sum(
        1
        for stat in after.compare_to(before, "traceback")
        if stat.size_diff >= min_block_bytes
    )
    return {
        "count": int(count),
        "peak_bytes": int(max(peak - current, 0)),
    }
