"""Cost-plane data types of the simulator.

A kernel variant's cost plane produces a :class:`KernelCost`: per-thread
core cycles, streamed memory bytes and exposed miss latency for one
matrix and row partition. :meth:`repro.model.AnalyticModel.run` turns it
into a :class:`RunResult`, the per-thread execution times and makespan
of one simulated run (see DESIGN.md Section 2).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = ["KernelCost", "RunResult"]


@dataclass(frozen=True)
class KernelCost:
    """Per-thread cost terms produced by a kernel's cost plane."""

    compute_cycles: np.ndarray      # core cycles per thread
    stream_bytes: np.ndarray        # DRAM/LLC traffic per thread
    latency_ns: np.ndarray          # exposed miss latency per thread (pre-MLP)
    mlp: float                      # effective memory-level parallelism
    flops: float                    # useful flops of the whole kernel
    working_set_bytes: float        # selects sustainable bandwidth level
    extra_seconds: np.ndarray | None = None  # e.g. reduction phases
    #: cost of the largest indivisible work unit (one row/block-row):
    #: a lower bound no dynamic schedule can beat, because work stealing
    #: cannot split a row (the reason the IMB pool includes matrix
    #: decomposition at all).
    max_unit_cycles: float = 0.0
    max_unit_latency_ns: float = 0.0

    def __post_init__(self) -> None:
        n = self.compute_cycles.shape
        if self.stream_bytes.shape != n or self.latency_ns.shape != n:
            raise ValueError("per-thread cost arrays must have equal shape")
        if self.mlp <= 0:
            raise ValueError("mlp must be positive")


@dataclass(frozen=True)
class RunResult:
    """Outcome of simulating one parallel kernel execution."""

    kernel_name: str
    machine_codename: str
    nthreads: int
    seconds: float                  # makespan of one kernel invocation
    thread_seconds: np.ndarray
    flops: float
    total_bytes: float
    schedule_kind: str
    breakdown: dict = field(default_factory=dict, compare=False)

    @property
    def gflops(self) -> float:
        """Performance in Gflop/s (the paper's reporting unit)."""
        return self.flops / self.seconds / 1e9

    @property
    def bandwidth_gbs(self) -> float:
        """Achieved memory bandwidth in GB/s."""
        return self.total_bytes / self.seconds / 1e9

    @property
    def median_thread_seconds(self) -> float:
        """Median per-thread busy time (used by the P_IMB bound)."""
        return float(np.median(self.thread_seconds))

    @property
    def imbalance(self) -> float:
        """Max over mean thread time; 1.0 is perfectly balanced."""
        mean = float(self.thread_seconds.mean())
        if mean == 0.0:
            return 1.0
        return float(self.thread_seconds.max() / mean)

    def summary(self) -> dict:
        """Compact JSON-friendly digest, used by telemetry spans."""
        return {
            "kernel": self.kernel_name,
            "machine": self.machine_codename,
            "nthreads": int(self.nthreads),
            "seconds": float(self.seconds),
            "gflops": float(self.gflops),
            "bandwidth_gbs": float(self.bandwidth_gbs),
            "imbalance": float(self.imbalance),
            "schedule": self.schedule_kind,
        }
