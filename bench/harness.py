"""Shared machinery of the benchmark: spans, statistics, output checks
and the host probe.

Nothing here imports ``repro`` at module level except through the
functions that need it, so ``run.py`` can report a missing package
before any work starts.
"""

from __future__ import annotations

import itertools
import json
import os
import platform
import statistics
import threading
import time
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

EPS = float(np.finfo(np.float64).eps)
TINY = float(np.finfo(np.float64).tiny)


# -- spans ---------------------------------------------------------------


@dataclass
class Span:
    """One timed call: ``start``/``end`` are ``perf_counter`` seconds."""

    id: int
    parent: int
    tid: int
    name: str
    start: float = 0.0
    end: float = 0.0
    attrs: dict = field(default_factory=dict)

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def seconds(self) -> float:
        return self.end - self.start

    def set(self, **attrs) -> None:
        self.attrs.update(attrs)


class Trace:
    """In-memory span recorder. Parents come from a per-thread stack of
    open spans, so nesting is recorded, not inferred from order."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    @contextmanager
    def span(self, name: str, **attrs):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        s = Span(next(self._ids), stack[-1].id if stack else 0,
                 threading.get_ident(), name, attrs=attrs)
        stack.append(s)
        s.start = time.perf_counter()
        try:
            yield s
        finally:
            s.end = time.perf_counter()
            stack.pop()
            self.spans.append(s)

    def durations(self, name: str, **match) -> list[float]:
        return [
            s.seconds for s in self.spans
            if s.name == name
            and all(s.attrs.get(k) == v for k, v in match.items())
        ]

    def self_times(self) -> dict[str, dict]:
        """Per layer: span count, inclusive and self seconds. A span's
        self time is its duration minus that of its direct children
        (children run on the parent's thread, so they do not overlap)."""
        child = {}
        for s in self.spans:
            child[s.parent] = child.get(s.parent, 0.0) + s.seconds
        table: dict[str, dict] = {}
        for s in self.spans:
            row = table.setdefault(
                s.layer, {"spans": 0, "total_s": 0.0, "self_s": 0.0})
            row["spans"] += 1
            row["total_s"] += s.seconds
            row["self_s"] += s.seconds - child.get(s.id, 0.0)
        return table

    def export_chrome(self, path: Path) -> None:
        """Write Chrome Trace Event JSON (complete events, microseconds)."""
        t0 = min((s.start for s in self.spans), default=0.0)
        pid = os.getpid()
        events = [
            {
                "name": s.name, "cat": s.layer, "ph": "X",
                "ts": (s.start - t0) * 1e6, "dur": s.seconds * 1e6,
                "pid": pid, "tid": s.tid,
                "args": {"id": s.id, "parent": s.parent, **s.attrs},
            }
            for s in self.spans
        ]
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"traceEvents": events,
                                    "displayTimeUnit": "ms"}, default=str))


class _NullSpan:
    def set(self, **attrs) -> None:
        pass


class NullTrace:
    """Tracing off: every span is a shared no-op context."""

    _ctx = nullcontext(_NullSpan())

    def span(self, name: str, **attrs):
        return self._ctx


def timed(trace, name: str, fn, **attrs) -> float:
    """Run ``fn()`` inside a span and return its wall seconds."""
    t0 = time.perf_counter()
    with trace.span(name, **attrs):
        fn()
    return time.perf_counter() - t0


# -- statistics ----------------------------------------------------------


def median(values) -> float:
    return float(statistics.median(values))


def quartiles(values) -> tuple[float, float, float]:
    values = list(values)
    if len(values) < 2:
        v = float(values[0])
        return v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return float(q1), float(q2), float(q3)


def percentile(values, pct: float) -> tuple[float, int]:
    """``pct``-th percentile and how many samples lie beyond it."""
    arr = np.asarray(values, dtype=np.float64)
    value = float(np.percentile(arr, pct))
    return value, int(np.count_nonzero(arr > value))


def bootstrap_median_ci(values, seed: int, resamples: int = 1000,
                        level: float = 0.95) -> tuple[float, float]:
    """Percentile-bootstrap confidence interval of the median."""
    arr = np.asarray(values, dtype=np.float64)
    rng = np.random.default_rng(seed)
    idx = rng.integers(0, arr.size, size=(resamples, arr.size))
    meds = np.median(arr[idx], axis=1)
    tail = 50.0 * (1.0 - level)
    lo, hi = np.percentile(meds, [tail, 100.0 - tail])
    return float(lo), float(hi)


# -- output checks -------------------------------------------------------


class Reference:
    """scipy oracle for one matrix, with the per-row error bound
    ``|y - y_ref|_i <= 2 * nnz_i * eps * (|A| |x|)_i + tiny``.

    Two summations of the same ``nnz_i`` products each stay within
    ``nnz_i * eps * (|A||x|)_i`` of the exact sum, hence the factor 2.
    """

    def __init__(self, csr):
        import scipy.sparse as sp

        self.S = csr.to_scipy()
        self.S_abs = sp.csr_matrix(
            (np.abs(csr.values), csr.colind, csr.rowptr), shape=csr.shape)
        self.row_nnz = np.diff(csr.rowptr).astype(np.float64)

    def tolerance(self, x: np.ndarray) -> np.ndarray:
        bound = self.S_abs @ np.abs(x)
        scale = self.row_nnz if bound.ndim == 1 else self.row_nnz[:, None]
        return 2.0 * scale * EPS * bound + TINY


def within(y: np.ndarray, y_ref: np.ndarray, tol: np.ndarray) -> bool:
    """True when every entry is within its bound (NaN/inf fail)."""
    return bool(np.all(np.abs(y - y_ref) <= tol))


# -- host ----------------------------------------------------------------


def _llc_bytes() -> int:
    """Largest cache size the kernel reports for CPU 0 (the LLC)."""
    best_level, best_size = -1, 0
    root = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in root.glob("index*"):
        try:
            level = int((index / "level").read_text())
            text = (index / "size").read_text().strip()
        except (OSError, ValueError):
            continue
        mult = {"K": 1 << 10, "M": 1 << 20, "G": 1 << 30}.get(text[-1:], 1)
        size = int(text.rstrip("KMG")) * mult
        if level > best_level or (level == best_level and size > best_size):
            best_level, best_size = level, size
    return best_size or 32 << 20


def _sort_probe_speedup(n: int, repeats: int = 3) -> float:
    """Two GIL-free ``np.sort`` calls on two threads vs one after the
    other: the host's effective two-thread parallelism."""
    rng = np.random.default_rng(0)
    arrays = [rng.random(n) for _ in range(2)]

    def sequential():
        for a in arrays:
            np.sort(a)

    def threaded():
        workers = [threading.Thread(target=np.sort, args=(a,))
                   for a in arrays]
        for w in workers:
            w.start()
        for w in workers:
            w.join()

    def best(fn):
        fn()
        samples = []
        for _ in range(repeats):
            t0 = time.perf_counter()
            fn()
            samples.append(time.perf_counter() - t0)
        return min(samples)

    return best(sequential) / best(threaded)


def host_info(quick: bool) -> dict:
    """nproc, versions, STREAM-style triad bandwidth and the sort probe.

    The triad's three arrays together span at least 4x the LLC (unless
    ``quick``), so it streams from memory rather than cache.
    """
    import scipy

    from repro.model.profile import _stream_bandwidth_gbs

    llc = _llc_bytes()
    elems = (1 << 18) if quick else -(-4 * llc // 24)
    gbps = _stream_bandwidth_gbs(elems, repeats=3, warmup=1)
    probe = _sort_probe_speedup((1 << 16) if quick else (1 << 21))
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "llc_bytes": int(llc),
        "triad_gbps": float(gbps),
        "triad_bytes_per_array": int(8 * elems),
        "triad_arrays_over_llc": float(3 * 8 * elems / llc),
        "sort_probe_speedup_t2": float(probe),
        "sort_probe_warning": probe < 1.2,
    }
