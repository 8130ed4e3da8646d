"""Simulated hardware platforms (system S3 in DESIGN.md).

The substitute substrate for the paper's KNC/KNL/Broadwell testbeds:
an analytical, calibrated multithreaded performance model. See
DESIGN.md Section 2 for why this preserves the behaviour the paper's
optimizer depends on.
"""

from .cache import (
    XAccessStats,
    clear_cache,
    residency_fractions,
    x_access_stats,
    x_working_set_bytes,
)
from .engine import KernelCost, RunResult
from .platforms import BROADWELL, KNC, KNL, PLATFORMS, get_platform
from .roofline import (
    RooflinePoint,
    attainable_gflops,
    peak_gflops,
    ridge_point,
    roofline_point,
)
from .spec import MachineSpec
from .stream import TriadResult, stream_table, stream_triad

__all__ = [
    "MachineSpec",
    "KNC",
    "KNL",
    "BROADWELL",
    "PLATFORMS",
    "get_platform",
    "KernelCost",
    "RunResult",
    "XAccessStats",
    "x_access_stats",
    "x_working_set_bytes",
    "residency_fractions",
    "clear_cache",
    "stream_triad",
    "RooflinePoint",
    "peak_gflops",
    "ridge_point",
    "attainable_gflops",
    "roofline_point",
    "stream_table",
    "TriadResult",
]
