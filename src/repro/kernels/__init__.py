"""SpMV kernel variants: numeric + cost + preprocessing planes (S4)."""

from .base import Kernel
from .costmodel import row_compute_cycles, spmv_cost
from .microbench import (
    MicroTiming,
    RegularizedColindSpMV,
    UnitStrideSpMV,
    time_callable,
)
from .preprocess_cost import (
    JIT_CODEGEN_SECONDS,
    decomposition_seconds,
    delta_conversion_seconds,
    feature_extraction_seconds,
    pass_seconds,
)
from .registry import (
    POOL_CONFIGS,
    QUARANTINE_THRESHOLD,
    clear_quarantine,
    is_quarantined,
    kernel_failure_count,
    kernel_failure_log,
    merged_pool_kernel,
    pairwise_optimization_kernels,
    pool_kernel,
    pool_names,
    quarantined_kernel_names,
    record_kernel_failure,
    register_pool_optimization,
    registered_pool_names,
    single_optimization_kernels,
)
from .bcsr import BCSRSpMV
from .sellcs import SellCSigmaSpMV
from .variants import ConfiguredSpMV, PreparedData, SpMVConfig, baseline_kernel

# Register BCSR as a ready-made plug-and-play optimization (block 2).
register_pool_optimization("bcsr", lambda: BCSRSpMV(block=2))
register_pool_optimization("sell-c-sigma", lambda: SellCSigmaSpMV(chunk=8))

__all__ = [
    "Kernel",
    "BCSRSpMV",
    "SellCSigmaSpMV",
    "SpMVConfig",
    "PreparedData",
    "ConfiguredSpMV",
    "baseline_kernel",
    "RegularizedColindSpMV",
    "UnitStrideSpMV",
    "MicroTiming",
    "time_callable",
    "spmv_cost",
    "row_compute_cycles",
    "POOL_CONFIGS",
    "pool_kernel",
    "pool_names",
    "register_pool_optimization",
    "registered_pool_names",
    "merged_pool_kernel",
    "QUARANTINE_THRESHOLD",
    "record_kernel_failure",
    "kernel_failure_count",
    "kernel_failure_log",
    "is_quarantined",
    "quarantined_kernel_names",
    "clear_quarantine",
    "single_optimization_kernels",
    "pairwise_optimization_kernels",
    "JIT_CODEGEN_SECONDS",
    "pass_seconds",
    "delta_conversion_seconds",
    "decomposition_seconds",
    "feature_extraction_seconds",
]
