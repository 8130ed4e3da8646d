"""Cache-behavior model for the irregular x-vector access stream.

SpMV's only hard-to-predict memory traffic is the gather from the
right-hand-side vector ``x`` through ``colind``. This module estimates,
per row,

* how many accesses *can* miss — the paper's naive per-row criterion
  (the column distance to the in-row predecessor exceeds the elements
  per cache line), plus the row's first access, which starts a new
  stream;
* how many of those are hidden by hardware stride prefetchers (modest
  forward strides only — the paper notes irregular accesses "cannot be
  detected by hardware prefetching mechanisms");
* where the surviving misses are served from, using a two-level
  residency model:

  - *local residency*: the slice of x a thread reuses must fit in its
    core's private-cache share, otherwise accesses leave the core and
    pay remote-L2/L3 latency (very expensive on the Phi ring);
  - *aggregate residency*: if the x working set fits the LLC as a
    whole, DRAM traffic and full-miss latency are avoided.

The measurements the paper takes are *warm-cache* (128 back-to-back
SpMVs), so residency is a steady-state fraction, not a cold-start one.

Exposed latency and DRAM traffic are linear in the two counts once the
residency is fixed, so :func:`x_miss_cost` prices any exact totals of
them (per thread, per row range) with no per-row pass.

Per-matrix derived arrays are memoized via :class:`weakref.WeakKeyDictionary`
so repeated simulated runs on the same matrix (bounds, oracle sweeps, ...)
do not recompute them.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass

import numpy as np

from ..formats import CSRMatrix
from .spec import MachineSpec

__all__ = ["XAccessStats", "x_access_stats", "x_miss_cost",
           "max_row_miss_latency", "clear_cache"]

#: Fraction of a cache level realistically available to hold ``x`` while
#: the matrix arrays stream through and continuously evict.
_X_CACHE_SHARE = 0.5

#: Forward strides up to this many cache lines are considered trackable
#: by hardware stride prefetchers.
_PREFETCHABLE_LINES = 8

_STATS_CACHE: "weakref.WeakKeyDictionary[CSRMatrix, dict]" = (
    weakref.WeakKeyDictionary()
)


@dataclass(frozen=True)
class XAccessStats:
    """Machine-independent access-pattern statistics of one matrix."""

    potential_misses: np.ndarray    # per row, incl. the row-start access
    strided_potential: np.ndarray   # subset with hw-prefetchable strides
    unique_x_lines: int             # distinct x cache lines touched


def _compute_stats(csr: CSRMatrix, line_elems: int) -> XAccessStats:
    if csr.nnz == 0:
        zero = np.zeros(csr.nrows, dtype=np.float64)
        return XAccessStats(zero, zero.copy(), 0)

    may_miss, strided = _miss_flags(csr, line_elems)
    return XAccessStats(
        csr.row_flag_counts(may_miss),
        csr.row_flag_counts(strided),
        _distinct_lines(csr.colind, csr.ncols, line_elems),
    )


def _miss_flags(csr: CSRMatrix,
                line_elems: int) -> tuple[np.ndarray, np.ndarray]:
    """Per-nonzero (may miss, hardware-prefetchable) flags of the
    row-major x stream."""
    colind = csr.colind
    # Column distance to the predecessor, in the index dtype: the
    # difference of two int32 column indices always fits in int32.
    gaps = np.empty(colind.size, dtype=colind.dtype)
    np.subtract(colind[1:], colind[:-1], out=gaps[1:])
    # A row's first access continues the stream of the previous row's
    # first access: in banded matrices consecutive rows start on nearly
    # the same column, so the line is already resident. The row-start
    # gap is the inter-row start distance, so the same miss criterion
    # applies to it.
    starts = csr.rowptr[:-1]
    starts = starts[starts < colind.size]
    first_cols = colind[starts].astype(np.int64)
    gaps[starts] = np.abs(np.diff(first_cols, prepend=first_cols[:1] - 10**9))

    return _miss_criterion(gaps, line_elems)


def _miss_criterion(gaps: np.ndarray,
                    line_elems: int) -> tuple[np.ndarray, np.ndarray]:
    """(may miss, hardware-prefetchable) flags of accesses ``gaps``
    columns from their predecessor: a gap wider than a line may miss,
    and one of those is trackable up to ``_PREFETCHABLE_LINES`` lines."""
    may_miss = gaps > line_elems
    strided = gaps <= _PREFETCHABLE_LINES * line_elems
    strided &= may_miss
    return may_miss, strided


def _distinct_lines(cols: np.ndarray, ncols: int, line_elems: int) -> int:
    """Distinct ``line_elems``-wide lines of x that ``cols`` touches.

    Marks a bool table of ``ncols // line_elems + 1`` lines while that
    table is no larger than an int64 copy of ``cols`` (8 bytes each); a
    hypersparse shape beyond that counts with ``np.unique`` over the
    line ids instead.
    """
    lines = cols // line_elems
    nlines = ncols // line_elems + 1
    if nlines > 8 * cols.size:
        return int(np.unique(lines).size)
    touched = np.zeros(nlines, dtype=bool)
    touched[lines] = True
    return int(np.count_nonzero(touched))


def x_access_stats(csr: CSRMatrix, line_elems: int = 8) -> XAccessStats:
    """Memoized access-pattern statistics for ``csr``, one pass per
    matrix object and line width.

    The pass keeps its nnz-sized temporaries small: int32 column gaps,
    exact integer per-row counts, and a touched-line table for the
    distinct x lines (``np.unique`` only for hypersparse shapes).
    """
    per_matrix = _STATS_CACHE.setdefault(csr, {})
    if line_elems not in per_matrix:
        per_matrix[line_elems] = _compute_stats(csr, line_elems)
    return per_matrix[line_elems]


def clear_cache() -> None:
    """Drop all memoized per-matrix statistics (mainly for tests)."""
    _STATS_CACHE.clear()


def x_working_set_bytes(csr: CSRMatrix, machine: MachineSpec) -> int:
    """Bytes of distinct x cache lines the matrix touches."""
    stats = x_access_stats(csr, machine.line_elems)
    return stats.unique_x_lines * machine.line_bytes


def residency_fractions(csr: CSRMatrix, machine: MachineSpec) -> tuple[float, float]:
    """(local, aggregate-LLC) steady-state residency fractions of x."""
    return _residency(x_working_set_bytes(csr, machine), machine)


def _residency(x_ws: int, machine: MachineSpec) -> tuple[float, float]:
    """(local, aggregate-LLC) residency of an ``x_ws``-byte x."""
    if x_ws == 0:
        return 1.0, 1.0
    local_cap = _X_CACHE_SHARE * machine.l2_bytes_per_core
    llc_cap = _X_CACHE_SHARE * machine.llc_bytes
    local = float(min(1.0, local_cap / x_ws))
    llc = float(min(1.0, max(llc_cap / x_ws, local)))
    return local, llc


def _visible_misses(potential, strided, machine: MachineSpec):
    """Possible misses left visible once hardware prefetchers hide the
    trackable strided ones."""
    return (potential - strided) + strided * (1.0 - machine.hw_prefetch_eff)


def _miss_cost(potential, strided, local: float, llc: float,
               machine: MachineSpec):
    """Exposed miss latency (ns, before MLP) and DRAM bytes of
    ``potential`` possible misses, ``strided`` of them trackable (per-row
    arrays, per-thread totals or stream totals)."""
    visible = _visible_misses(potential, strided, machine)

    # Misses that leave the core: a fraction `llc - local` of them is
    # served by a remote L2 / the L3, the rest (1 - llc) go to DRAM.
    leaving = visible * (1.0 - local)
    if local < 1.0:
        remote_frac = min(max((llc - local) / (1.0 - local), 0.0), 1.0)
    else:
        remote_frac = 1.0
    latency_ns = leaving * (
        remote_frac * machine.llc_hit_latency_ns
        + (1.0 - remote_frac) * machine.mem_latency_ns
    )

    # DRAM line traffic: only the non-LLC-resident share of potential
    # re-fetches. Prefetched lines still consume bandwidth, so the
    # hardware-prefetch reduction does NOT apply to traffic.
    dram_bytes = potential * (1.0 - llc) * machine.line_bytes
    return latency_ns, dram_bytes


def x_miss_cost(csr: CSRMatrix, machine: MachineSpec, potential, strided,
                *, software_prefetch: bool = False):
    """Exposed miss latency (ns, before MLP: the time model applies the
    memory-level parallelism, which is what software prefetching
    improves) and x DRAM bytes of ``potential`` possible misses of
    ``csr``'s x stream, ``strided`` of them trackable: the per-row
    counts of :func:`x_access_stats`, or any totals of them (per
    thread, per row range)."""
    local, llc = residency_fractions(csr, machine)
    latency_ns, dram_bytes = _miss_cost(potential, strided, local, llc,
                                        machine)
    # Software prefetch slightly inflates traffic with useless fetches.
    if software_prefetch:
        dram_bytes = dram_bytes * 1.05
    return latency_ns, dram_bytes


def max_row_miss_latency(csr: CSRMatrix, machine: MachineSpec) -> float:
    """The largest per-row exposed miss latency of ``csr`` (ns, before
    MLP; 0 without rows).

    A row's latency grows with its visible misses alone, so this is
    the latency of the row with the most of them: equal, bit for bit,
    to the maximum of :func:`x_miss_cost` over the per-row counts.
    """
    if csr.nrows == 0:
        return 0.0
    stats = x_access_stats(csr, machine.line_elems)
    p, s = stats.potential_misses, stats.strided_potential
    row = int(np.argmax(_visible_misses(p, s, machine)))
    return float(x_miss_cost(csr, machine, p[row], s[row])[0])


def stream_counts(cols, ncols: int, line_elems: int) -> tuple[int, int, int]:
    """Machine-independent counts of an arbitrary x gather stream
    (column order as issued): ``(may miss, hardware-prefetchable,
    distinct lines)``, the first access counting as a miss. Used by
    kernels whose access order is not row-major CSR (e.g. SELL-C-sigma's
    chunk-column-major stream, which memoizes them per matrix);
    :func:`stream_cost` prices them."""
    cols = np.asarray(cols, dtype=np.int64)
    if cols.size == 0:
        return 0, 0, 0
    gaps = np.abs(np.diff(cols, prepend=cols[:1] - 10**9))
    may_miss, strided = _miss_criterion(gaps, line_elems)
    return (int(np.count_nonzero(may_miss)), int(np.count_nonzero(strided)),
            _distinct_lines(cols, ncols, line_elems))


def stream_cost(counts: tuple[int, int, int], machine: MachineSpec) -> dict:
    """Latency/traffic totals of an x gather stream from its
    :func:`stream_counts`: ``{"latency_ns": float, "dram_bytes": float}``."""
    may_miss, strided, lines = counts
    local, llc = _residency(lines * machine.line_bytes, machine)
    latency_ns, dram_bytes = _miss_cost(
        float(may_miss), float(strided), local, llc, machine,
    )
    return {"latency_ns": float(latency_ns), "dram_bytes": float(dram_bytes)}
