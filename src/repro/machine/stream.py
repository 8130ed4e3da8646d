"""STREAM-triad calibration microbenchmark (paper Table III rows).

The paper characterizes each platform by its STREAM triad bandwidth for
main memory and for LLC-resident working sets. In this reproduction the
spec values *are* the calibration source, so the simulated triad must
recover them — :func:`stream_triad` runs the triad through the same
bandwidth/overhead model the SpMV kernels use, making Table III a
regression test of the engine rather than a tautology: launch overheads
and the LLC ramp must not distort the plateau values.
"""

from __future__ import annotations

from dataclasses import dataclass

from .spec import MachineSpec

__all__ = ["TriadResult", "stream_triad", "stream_table"]


@dataclass(frozen=True)
class TriadResult:
    """One simulated STREAM triad measurement."""

    machine_codename: str
    array_elems: int
    working_set_bytes: int
    seconds: float
    bandwidth_gbs: float


def stream_triad(machine: MachineSpec, array_elems: int,
                 nthreads: int | None = None,
                 include_launch_overhead: bool = True) -> TriadResult:
    """Simulate ``a[i] = b[i] + s * c[i]`` over float64 arrays.

    Traffic counts 4 lines per element-triple (read b, read c, write-
    allocate + write-back a), the STREAM convention that matches the
    paper's triad numbers. The STREAM benchmark amortizes its timed
    loop over many iterations without per-iteration barriers; pass
    ``include_launch_overhead=False`` to reproduce that protocol (used
    for the Table III plateau values), or leave it on to model a single
    cold launch.
    """
    if array_elems < 1:
        raise ValueError("array_elems must be >= 1")
    T = machine.total_threads if nthreads is None else int(nthreads)
    ws = 3 * 8 * array_elems
    bytes_moved = 4 * 8 * array_elems
    bw = machine.bandwidth_for_working_set(ws)
    seconds = bytes_moved / bw
    if include_launch_overhead:
        seconds += machine.parallel_overhead_seconds(T)
    return TriadResult(
        machine_codename=machine.codename,
        array_elems=array_elems,
        working_set_bytes=ws,
        seconds=seconds,
        bandwidth_gbs=bytes_moved / seconds / 1e9,
    )


def stream_table(machine: MachineSpec) -> dict[str, float]:
    """Reproduce the Table III 'STREAM triad main/llc' pair (GB/s).

    The main-memory point uses arrays 8x the LLC; the LLC point uses
    arrays filling 30% of the LLC (comfortably resident).
    """
    llc = machine.llc_bytes
    main_elems = int(8 * llc / (3 * 8))
    llc_elems = max(int(0.3 * llc / (3 * 8)), 1)
    return {
        "main_gbs": stream_triad(
            machine, main_elems, include_launch_overhead=False
        ).bandwidth_gbs,
        "llc_gbs": stream_triad(
            machine, llc_elems, include_launch_overhead=False
        ).bandwidth_gbs,
    }
