"""Configurable SpMV kernel variants (the paper's optimization pool).

One :class:`SpMVConfig` captures the full cross-product of the paper's
Table I optimizations applied to the CSR baseline:

* ``vectorize``   — SIMD inner loop (part of the MB and CMP recipes);
* ``unroll``      — inner-loop unrolling (CMP recipe, with vectorize);
* ``prefetch``    — software prefetching of x (ML recipe);
* ``compress``    — delta-encoded column indices (MB recipe);
* ``decompose``   — long-row split + cooperative reduction (IMB recipe);
* ``schedule``    — row-partitioning policy (``auto`` is the second
  IMB recipe).

:class:`ConfiguredSpMV` implements the numeric, cost and preprocessing
planes for any such configuration, including joint application, which
is how the optimizer combines the recipes of multiple detected classes.

Every configuration executes the caller's CSR on the same compiled
kernel (:mod:`repro.formats.compiled`), bitwise equal to ``S @ x``, so
every flag changes only the cost plane: ``vectorize``, ``unroll`` and
``prefetch`` model the paper's hardware effects, while ``compress``
and ``decompose`` price the delta-CSR and decomposed formats, which
:class:`PreparedData` builds on first read.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .._validation import check_in
from ..formats import CSRMatrix, DecomposedCSR, DeltaCSR
from ..machine import KernelCost, MachineSpec
from ..machine.cache import x_access_stats, x_miss_cost
from ..sched import Partition
from .base import Kernel
from .costmodel import row_compute_cycles, spmv_cost
from .preprocess_cost import (
    JIT_CODEGEN_SECONDS,
    decomposition_seconds,
    delta_conversion_seconds,
)

__all__ = ["SpMVConfig", "PreparedData", "ConfiguredSpMV", "baseline_kernel"]

#: Per-long-row cooperative reduction latency factor (tree of partial
#: sums across threads; ~2 cache-line transfers per level).
_REDUCE_NS_PER_LEVEL = 100.0


@dataclass(frozen=True)
class SpMVConfig:
    """Optimization flags relative to the scalar CSR baseline."""

    vectorize: bool = False
    unroll: bool = False
    prefetch: bool = False
    compress: bool = False
    decompose: bool = False
    schedule: str = "balanced-nnz"
    delta_width: int | None = None          # None = automatic
    decompose_threshold: int | None = None  # None = automatic

    def __post_init__(self) -> None:
        check_in("schedule", self.schedule,
                 ("static-rows", "balanced-nnz", "auto", "dynamic"))
        if self.delta_width not in (None, 8, 16):
            raise ValueError("delta_width must be None, 8 or 16")

    @property
    def label(self) -> str:
        """Compact human-readable name, e.g. ``csr+vec+pf``."""
        tags = []
        if self.compress:
            tags.append("delta")
        if self.vectorize:
            tags.append("vec")
        if self.unroll:
            tags.append("unroll")
        if self.prefetch:
            tags.append("pf")
        if self.decompose:
            tags.append("split")
        if self.schedule != "balanced-nnz":
            tags.append(self.schedule)
        return "csr" + ("+" + "+".join(tags) if tags else "")

    @property
    def optimization_tags(self) -> tuple[str, ...]:
        tags = []
        if self.compress:
            tags.append("compression")
        if self.vectorize:
            tags.append("vectorization")
        if self.unroll:
            tags.append("unrolling")
        if self.prefetch:
            tags.append("prefetching")
        if self.decompose:
            tags.append("decomposition")
        if self.schedule == "auto":
            tags.append("auto-scheduling")
        return tuple(tags)

    def merged_with(self, other: "SpMVConfig") -> "SpMVConfig":
        """Joint application of two optimization recipes."""
        schedule = self.schedule
        if other.schedule != "balanced-nnz":
            schedule = other.schedule
        return SpMVConfig(
            vectorize=self.vectorize or other.vectorize,
            unroll=self.unroll or other.unroll,
            prefetch=self.prefetch or other.prefetch,
            compress=self.compress or other.compress,
            decompose=self.decompose or other.decompose,
            schedule=schedule,
            delta_width=self.delta_width or other.delta_width,
            decompose_threshold=(
                self.decompose_threshold or other.decompose_threshold
            ),
        )


@dataclass
class PreparedData:
    """The caller's CSR and config, from :meth:`ConfiguredSpMV.preprocess`.

    Every configuration executes ``csr`` itself. The formats the cost
    plane prices are built on first read: ``decomposed`` with
    ``decompose``, ``delta`` with ``compress`` alone, ``short_delta``
    (the short part encoded) with both. Each reads ``None`` otherwise.
    """

    csr: CSRMatrix
    config: SpMVConfig

    @cached_property
    def decomposed(self) -> DecomposedCSR | None:
        if not self.config.decompose:
            return None
        return DecomposedCSR.from_csr(
            self.csr, threshold=self.config.decompose_threshold
        )

    @cached_property
    def delta(self) -> DeltaCSR | None:
        cfg = self.config
        if not cfg.compress or cfg.decompose:
            return None
        return DeltaCSR.from_csr(self.csr, width=cfg.delta_width)

    @cached_property
    def short_delta(self) -> DeltaCSR | None:
        cfg = self.config
        if not (cfg.compress and cfg.decompose):
            return None
        return DeltaCSR.from_csr(self.decomposed.short, width=cfg.delta_width)

    @property
    def main_csr(self) -> CSRMatrix:
        """The row structure the cost plane partitions and prices."""
        return self.decomposed.short if self.decomposed is not None else self.csr

    def long_part_csr(self) -> CSRMatrix | None:
        """The long rows as a compact CSR (rows = long rows only)."""
        if self.decomposed is None:
            return None
        return self.decomposed.long_part()


class ConfiguredSpMV(Kernel):
    """SpMV kernel with an arbitrary combination of pool optimizations."""

    def __init__(self, config: SpMVConfig | None = None, **flags):
        if config is None:
            config = SpMVConfig(**flags)
        elif flags:
            config = replace(config, **flags)
        self.config = config
        self.name = config.label
        self.optimizations = config.optimization_tags
        self.schedule = config.schedule

    # -- preprocessing ---------------------------------------------------

    def preprocess(self, csr: CSRMatrix) -> PreparedData:
        return PreparedData(csr, self.config)

    def preprocessing_seconds(self, csr: CSRMatrix, machine: MachineSpec) -> float:
        cfg = self.config
        seconds = 0.0
        if cfg is not None and cfg != SpMVConfig():
            seconds += JIT_CODEGEN_SECONDS
        if cfg.compress:
            seconds += delta_conversion_seconds(csr, machine)
        if cfg.decompose:
            seconds += decomposition_seconds(csr, machine)
        return seconds

    # -- numeric plane -----------------------------------------------------

    def apply(self, data: PreparedData, x: np.ndarray,
              out: np.ndarray | None = None, workspace=None) -> np.ndarray:
        return data.csr.matvec(x, out=out, workspace=workspace)

    def apply_multi(self, data: PreparedData, X: np.ndarray,
                    out: np.ndarray | None = None,
                    workspace=None) -> np.ndarray:
        return data.csr.matmat(X, out=out, workspace=workspace)

    # -- scheduling -----------------------------------------------------------

    def _schedulable(self, data: PreparedData):
        return data.main_csr

    # -- cost plane -------------------------------------------------------------

    def cost(self, data: PreparedData, machine: MachineSpec,
             partition: Partition) -> KernelCost:
        cfg = self.config
        main = data.main_csr
        index_bytes = 4.0
        extra_row_bytes = 0.0
        if cfg.compress:
            delta = data.short_delta if cfg.decompose else data.delta
            index_bytes = delta.width / 8.0
            # Out-of-line reset entries (12 B each), amortized per row.
            if main.nrows:
                extra_row_bytes = 12.0 * delta.n_resets / main.nrows

        total_flops = 2.0 * data.csr.nnz
        ws = (
            data.csr.value_nbytes()
            + main.nrows * (8.0 + extra_row_bytes)
            + main.nnz * index_bytes
            + 8.0 * (data.csr.nrows + data.csr.ncols)
        )

        cost = spmv_cost(
            main, machine, partition,
            vectorize=cfg.vectorize,
            unroll=cfg.unroll,
            prefetch=cfg.prefetch,
            decode=cfg.compress,
            index_bytes_per_nnz=index_bytes,
            extra_index_bytes_per_row=extra_row_bytes,
            x_mode="gather",
            flops=total_flops,
            working_set_bytes=ws,
        )

        if cfg.decompose and data.decomposed.n_long_rows:
            cost = self._add_long_rows_cost(data, machine, partition, cost)
        return cost

    def _add_long_rows_cost(self, data: PreparedData, machine: MachineSpec,
                            partition: Partition, cost: KernelCost) -> KernelCost:
        """Phase 2 of the decomposed kernel: cooperative long rows.

        Every long row is split evenly across all threads (long rows
        vectorize well: contiguous value streams), followed by a
        tree reduction of partial sums and a phase barrier.
        """
        cfg = self.config
        d = data.decomposed
        T = partition.nthreads
        long_csr = data.long_part_csr()

        # Each thread processes a 1/T slice of every long row. Long-row
        # slices are contiguous value streams, so they vectorize well
        # regardless of the main loop's flag.
        chunk_nnz = np.diff(d.long_rowptr).astype(np.float64) / T
        cycles_per_thread = float(
            row_compute_cycles(
                np.maximum(chunk_nnz, 1.0), machine,
                vectorize=True,
                unroll=cfg.unroll,
                prefetch=cfg.prefetch,
                x_mode="gather",
            ).sum()
        )

        # Memory traffic and x-miss latency of the long part, from its
        # summed x-access counts, spread evenly.
        stats = x_access_stats(long_csr, machine.line_elems)
        latency, x_bytes = x_miss_cost(
            long_csr, machine,
            int(stats.potential_misses.sum()),
            int(stats.strided_potential.sum()),
            software_prefetch=cfg.prefetch,
        )
        long_bytes = (d.long_nnz * 12.0 + float(x_bytes)) / T
        long_latency = float(latency) / T

        reduce_s = (
            d.n_long_rows
            * math.log2(max(T, 2))
            * _REDUCE_NS_PER_LEVEL
            * 1e-9
        )
        barrier_s = machine.parallel_overhead_seconds(T)

        extra = np.full(T, reduce_s + barrier_s)
        if cost.extra_seconds is not None:
            extra = extra + cost.extra_seconds
        return KernelCost(
            compute_cycles=cost.compute_cycles + cycles_per_thread,
            stream_bytes=cost.stream_bytes + long_bytes,
            latency_ns=cost.latency_ns + long_latency,
            mlp=cost.mlp,
            flops=cost.flops,
            working_set_bytes=cost.working_set_bytes + d.long_nnz * 12.0,
            extra_seconds=extra,
            max_unit_cycles=cost.max_unit_cycles,
            max_unit_latency_ns=cost.max_unit_latency_ns,
        )


def baseline_kernel() -> ConfiguredSpMV:
    """The paper's baseline: scalar CSR, nnz-balanced static partition,
    software prefetching disabled (icc ``-qopt-prefetch=0``)."""
    return ConfiguredSpMV(SpMVConfig())
