"""The analytic cost model — the simulator behind one protocol.

:class:`AnalyticModel` is the single home of the modeled performance
estimates that used to be scattered across the codebase: the
per-thread overlap model of :class:`~repro.machine.engine.
ExecutionEngine`, the per-class bound derivation that lived in
``core/bounds.measure_bounds``, and the micro-kernel cost planes of
:mod:`repro.kernels.costmodel`. Consumers (pipeline stages, the
optimizer, baselines, schedulers) talk to the :class:`~repro.model.
base.CostModel` protocol and never construct an ``ExecutionEngine``
themselves, which is what lets :class:`~repro.model.calibrated.
CalibratedModel` swap in transparently.
"""

from __future__ import annotations

import numpy as np

from ..machine import ExecutionEngine, MachineSpec, RunResult
from .base import PerformanceBounds, Prediction

__all__ = ["AnalyticModel"]


class AnalyticModel:
    """Pure analytical cost model for one target machine.

    Thin, cheap object: engines are memoized per thread count, so a
    model can serve predictions at many ``nthreads`` without
    reconstruction. ``nthreads=None`` means the machine's full thread
    count (the simulator's default).
    """

    kind = "analytic"

    def __init__(self, machine: MachineSpec,
                 nthreads: int | None = None):
        self.machine = machine
        self.nthreads = None if nthreads is None else int(nthreads)
        self._engines: dict[int | None, ExecutionEngine] = {}

    # -- engine plumbing ----------------------------------------------

    def engine(self, nthreads: int | None = None) -> ExecutionEngine:
        """The memoized simulator at ``nthreads`` (default: the model's)."""
        key = self.nthreads if nthreads is None else int(nthreads)
        eng = self._engines.get(key)
        if eng is None:
            eng = ExecutionEngine(self.machine, key)
            self._engines[key] = eng
        return eng

    # -- predictions ---------------------------------------------------

    def run(self, kernel, data, partition=None, *,
            nthreads: int | None = None) -> RunResult:
        """Predict one execution of ``kernel`` on ``data``.

        Drop-in for the old ``ExecutionEngine(machine, n).run(...)``
        idiom; ``nthreads`` overrides the model's default for this call
        only (the execute stage predicts at the *measured* thread count
        this way).
        """
        return self.engine(nthreads).run(kernel, data, partition)

    def measure(self, kernel, data, partition=None, *,
                nthreads: int | None = None,
                iterations: int = 128, runs: int = 5) -> RunResult:
        """The paper's 5x128-iteration measurement protocol."""
        return self.engine(nthreads).measure(
            kernel, data, partition, iterations=iterations, runs=runs
        )

    def predict(self, kernel, data, partition=None, *,
                nthreads: int | None = None) -> Prediction:
        """Predict with the P_MB/P_ML-style decomposition pulled out."""
        return Prediction.from_result(
            self.run(kernel, data, partition, nthreads=nthreads)
        )

    def per_thread_seconds(self, kernel, data, partition=None, *,
                           nthreads: int | None = None) -> np.ndarray:
        """Predicted per-thread busy times (the makespan's inputs)."""
        return self.run(
            kernel, data, partition, nthreads=nthreads
        ).thread_seconds

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
        partition = base.partition(data, self.engine().nthreads)
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
