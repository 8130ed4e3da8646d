"""The analytic cost model: the simulator behind one protocol.

:class:`AnalyticModel` is the single home of the modeled performance
estimates: the per-thread overlap time model (:meth:`AnalyticModel.run`),
the per-class bound derivation (:meth:`AnalyticModel.bounds`), and,
through the kernels' cost planes, the micro-kernel cost assembly of
:mod:`repro.kernels.costmodel`. Consumers (pipeline stages, the
optimizer, baselines, schedulers) talk to the :class:`~repro.model.
base.CostModel` protocol, which is what lets :class:`~repro.model.
calibrated.CalibratedModel` swap in transparently.

The time model stands in for running native OpenMP kernels on real
hardware (see DESIGN.md Section 2). A kernel's cost plane gives
per-thread core cycles, streamed memory bytes and exposed miss latency
for a matrix and row partition; :meth:`AnalyticModel.run` turns them
into per-thread times with a first-order overlap model,

``t_thread = max(compute, bandwidth_share, latency / MLP) + extra``

plus a global bandwidth-saturation floor (the memory system cannot
move more than ``B_max`` bytes/second regardless of per-thread
overlap), SMT pipeline sharing (core cycles stretch by the number of
co-resident hardware threads), per-launch fork/join overhead, and
chunk-dispatch overhead for the ``auto``/``dynamic`` schedules. The
per-thread time vector is what the paper's bound-and-bottleneck
analysis consumes: ``P_IMB`` uses its median, bandwidth utilization
falls out of bytes/makespan, and so on.
"""

from __future__ import annotations

import numpy as np

from ..machine import MachineSpec, RunResult
from .base import PerformanceBounds, Prediction

__all__ = ["AnalyticModel"]

#: Core cycles to grab one scheduling chunk from the shared queue
#: (atomic fetch-add + loop restart) for auto/dynamic schedules.
_CHUNK_DISPATCH_CYCLES = 120.0


class AnalyticModel:
    """Pure analytical cost model for one target machine.

    Thin, cheap object: a model serves predictions at any ``nthreads``
    without reconstruction. ``nthreads=None`` means the machine's full
    thread count (the simulator's default).
    """

    kind = "analytic"

    def __init__(self, machine: MachineSpec,
                 nthreads: int | None = None):
        self.machine = machine
        self.nthreads = None if nthreads is None else self._threads(nthreads)

    def _threads(self, nthreads: int | None = None) -> int:
        """The call's thread count, else the model's, else the
        machine's; a count below 1 is an error."""
        if nthreads is None:
            nthreads = self.nthreads or self.machine.total_threads
        nthreads = int(nthreads)
        if nthreads < 1:
            raise ValueError("nthreads must be >= 1")
        return nthreads

    # -- predictions ---------------------------------------------------

    def run(self, kernel, data, partition=None, *,
            nthreads: int | None = None) -> RunResult:
        """Simulate one execution of ``kernel`` on ``data``.

        ``partition`` defaults to the kernel's preferred partitioning
        at ``nthreads``, which overrides the model's default for this
        call only (:func:`~repro.model.measure_parallel` predicts at
        the *measured* thread count this way). An explicit partition
        fixes the width.
        """
        width = self._threads(nthreads)
        if partition is None:
            partition = kernel.partition(data, width)
        cost = kernel.cost(data, self.machine, partition)
        m = self.machine
        T = partition.nthreads

        t_comp = cost.compute_cycles * (m.smt / m.freq_hz)
        bw = m.bandwidth_for_working_set(cost.working_set_bytes)
        t_bw = cost.stream_bytes / (bw / T)
        t_lat = cost.latency_ns * (1e-9 / cost.mlp)

        thread = np.maximum(np.maximum(t_comp, t_bw), t_lat)
        if cost.extra_seconds is not None:
            thread = thread + cost.extra_seconds

        if partition.kind in ("auto", "dynamic"):
            chunks_per_thread = partition.n_chunks() / max(T, 1)
            dispatch = chunks_per_thread * _CHUNK_DISPATCH_CYCLES * (
                m.smt / m.freq_hz
            )
            thread = thread + dispatch

        if partition.is_dynamic:
            # Work stealing equalizes busy time across threads, but it
            # cannot split a row: the largest indivisible unit floors
            # the makespan (plus dispatch, already included above).
            unit_floor = max(
                cost.max_unit_cycles * (m.smt / m.freq_hz),
                cost.max_unit_latency_ns * (1e-9 / cost.mlp),
            )
            thread = np.full_like(
                thread, max(float(thread.mean()), unit_floor)
            )

        makespan = float(thread.max(initial=0.0))
        # Global bandwidth saturation floor.
        total_bytes = float(cost.stream_bytes.sum())
        makespan = max(makespan, total_bytes / bw)
        makespan += m.parallel_overhead_seconds(T)

        return RunResult(
            kernel_name=kernel.name,
            machine_codename=m.codename,
            nthreads=T,
            seconds=makespan,
            thread_seconds=thread,
            flops=cost.flops,
            total_bytes=total_bytes,
            schedule_kind=partition.kind,
            breakdown={
                "compute_s": t_comp,
                "bandwidth_s": t_bw,
                "latency_s": t_lat,
                "bandwidth_level_gbs": bw / 1e9,
            },
        )

    def predict(self, kernel, data, partition=None, *,
                nthreads: int | None = None) -> Prediction:
        """Predict with the P_MB/P_ML-style decomposition pulled out."""
        return Prediction.from_result(
            self.run(kernel, data, partition, nthreads=nthreads)
        )

    # -- per-class bounds (paper Section III-B) ------------------------

    def _bandwidth_for(self, working_set_bytes: float) -> float:
        """Sustainable bandwidth (bytes/s) for the analytic bounds; the
        calibrated model scales this by its measured profile."""
        return self.machine.bandwidth_for_working_set(working_set_bytes)

    def bounds(self, csr) -> PerformanceBounds:
        """Run the bound-and-bottleneck analysis for ``csr``.

        * ``P_MB``   — analytic: minimum traffic at maximum sustainable
          bandwidth, ``2*NNZ / ((M_A_csr,min + M_xy,min) / B_max)``;
        * ``P_ML``   — operational: the regularized-colind micro-kernel
          (irregular x accesses made regular);
        * ``P_IMB``  — from the baseline run's *median* per-thread time
          (median, not mean, to discount outliers);
        * ``P_CMP``  — operational: the unit-stride micro-kernel
          (indirection removed entirely) — a very loose bound;
        * ``P_peak`` — format-independent: only the values array must
          move (all indexing compressed away).
        """
        from ..kernels import (
            RegularizedColindSpMV,
            UnitStrideSpMV,
            baseline_kernel,
        )

        if csr.nnz == 0:
            raise ValueError("cannot analyze an empty matrix")
        flops = 2.0 * csr.nnz

        # All three runs balance the same rows at the same thread
        # count, so they share the baseline's balanced-nnz partition.
        base = baseline_kernel()
        data = base.preprocess(csr)
        partition = base.partition(data, self._threads())
        r_csr = self.run(base, data, partition)

        # Analytic bounds: compulsory traffic at peak sustainable
        # bandwidth.
        m_xy = 8.0 * (csr.ncols + csr.nrows)
        ws = csr.total_nbytes() + m_xy
        bw = self._bandwidth_for(ws)
        p_mb = flops / ((csr.total_nbytes() + m_xy) / bw) / 1e9
        p_peak = flops / ((csr.value_nbytes() + m_xy) / bw) / 1e9

        # Operational bounds: modified micro-kernels through the same
        # model (so a calibrated model scales them consistently).
        r_ml = self.run(RegularizedColindSpMV(), csr, partition)
        r_cmp = self.run(UnitStrideSpMV(), csr, partition)

        # Imbalance bound: median thread busy time of the baseline run,
        # plus the same launch overhead every run pays.
        t_median = (
            r_csr.median_thread_seconds
            + self.machine.parallel_overhead_seconds(r_csr.nthreads)
        )
        p_imb = flops / t_median / 1e9

        return PerformanceBounds(
            p_csr=r_csr.gflops,
            p_mb=p_mb,
            p_ml=r_ml.gflops,
            p_imb=p_imb,
            p_cmp=r_cmp.gflops,
            p_peak=p_peak,
            baseline=r_csr,
            machine_codename=self.machine.codename,
        )

    # -- supervision support -------------------------------------------

    def suggest_deadline(self, kernel, data, *,
                         nthreads: int | None = None,
                         safety: float = 50.0,
                         floor: float = 0.05) -> float:
        """A watchdog deadline (seconds) derived from the prediction.

        ``safety * predicted_seconds`` with an absolute ``floor`` so a
        sub-millisecond prediction never produces a hair-trigger
        deadline. For the pure analytic model the prediction is in
        *simulated-machine* seconds; a refined
        :class:`~repro.model.calibrated.CalibratedModel` predicts host
        wall time, which is what makes ``deadline_seconds="auto"``
        meaningful on real runs.
        """
        predicted = self.run(kernel, data, nthreads=nthreads)
        return max(float(floor), float(safety) * predicted.seconds)

    # -- identity ------------------------------------------------------

    def signature(self) -> str:
        """Full content signature, recorded on plan IR (v3+) and in
        plan-cache keys."""
        return self.kind

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        t = "default" if self.nthreads is None else self.nthreads
        return f"<AnalyticModel {self.machine.name} nthreads={t}>"
