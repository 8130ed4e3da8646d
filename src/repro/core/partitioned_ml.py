"""Partitioned irregularity detection — the paper's future-work idea.

Section IV-C, on the rajat30 miss: "the benchmark that exposes
irregularity for the profile-guided classifier can actually detect the
irregularity in this matrix by looking at it in partitions, instead of
looking at it as a whole. We intend to extend our classification
approach to incorporate this idea in future work."

The failure mode: in matrices that mix a few huge compute-bound rows
with a large latency-bound remainder, the whole-matrix ``P_ML``
micro-benchmark is dominated by the dense rows, so the ML headroom of
the remainder never clears ``T_ML``. Splitting the row space into
nnz-balanced partitions and running the baseline/regularized pair *per
partition* exposes the latency-bound region.

:class:`PartitionedMLDetector` implements exactly that, and
:class:`ExtendedProfileClassifier` grafts it onto the stock
profile-guided classifier: the ML class is added when *either* the
whole-matrix rule fires *or* enough of the matrix's nonzeros live in
partitions whose local ML gain clears the threshold.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..formats import CSRMatrix
from ..kernels import RegularizedColindSpMV, baseline_kernel
from ..machine import MachineSpec
from ..model import PROFILING_ITERATIONS, AnalyticModel
from ..sched import balanced_nnz
from .classes import Bottleneck, ClassSet
from .profile_classifier import ProfileGuidedClassifier, ProfileThresholds

__all__ = [
    "PartitionGain",
    "PartitionedMLReport",
    "PartitionedMLDetector",
    "ExtendedProfileClassifier",
]


@dataclass(frozen=True)
class PartitionGain:
    """ML headroom of one row partition."""

    row_start: int
    row_stop: int
    nnz: int
    p_csr: float
    p_ml: float

    @property
    def gain(self) -> float:
        return self.p_ml / self.p_csr if self.p_csr > 0 else 1.0


@dataclass(frozen=True)
class PartitionedMLReport:
    """Outcome of the per-partition irregularity analysis."""

    partitions: tuple[PartitionGain, ...]
    ml_nnz_fraction: float       # nnz share of partitions above threshold
    whole_matrix_gain: float
    detected: bool

    @property
    def max_gain(self) -> float:
        return max((p.gain for p in self.partitions), default=1.0)


class PartitionedMLDetector:
    """Detects latency-bound *regions* hidden from the global P_ML bench.

    Parameters
    ----------
    machine
        Target platform.
    n_partitions
        Number of nnz-balanced row blocks to analyze.
    t_ml
        Per-partition gain threshold (same semantics as the
        classifier's ``T_ML``).
    min_nnz_fraction
        Minimum share of the matrix's nonzeros that must live in
        above-threshold partitions for the ML class to be added.
    """

    def __init__(
        self,
        machine: MachineSpec,
        n_partitions: int = 8,
        t_ml: float = 1.25,
        min_nnz_fraction: float = 0.25,
        nthreads: int | None = None,
    ):
        if n_partitions < 2:
            raise ValueError("n_partitions must be >= 2")
        if t_ml <= 1.0:
            raise ValueError("t_ml must exceed 1.0")
        if not 0.0 < min_nnz_fraction <= 1.0:
            raise ValueError("min_nnz_fraction must be in (0, 1]")
        self.machine = machine
        self.n_partitions = n_partitions
        self.t_ml = t_ml
        self.min_nnz_fraction = min_nnz_fraction
        self.nthreads = nthreads

    def analyze(self, csr: CSRMatrix) -> PartitionedMLReport:
        """Per-partition baseline vs regularized analysis."""
        if csr.nnz == 0:
            raise ValueError("cannot analyze an empty matrix")
        model = AnalyticModel(self.machine, self.nthreads)
        base = baseline_kernel()
        reg = RegularizedColindSpMV()

        whole = self._gain_of(model, base, reg, csr)

        # nnz-balanced row blocks (never splitting a row).
        bounds = balanced_nnz(csr, self.n_partitions).boundaries
        gains: list[PartitionGain] = []
        for i in range(self.n_partitions):
            lo, hi = int(bounds[i]), int(bounds[i + 1])
            if hi <= lo:
                continue
            block = csr.submatrix_rows(lo, hi)
            if block.nnz == 0:
                continue
            r_csr = model.run(base, base.preprocess(block))
            r_ml = model.run(reg, block)
            gains.append(
                PartitionGain(
                    row_start=lo,
                    row_stop=hi,
                    nnz=block.nnz,
                    p_csr=r_csr.gflops,
                    p_ml=r_ml.gflops,
                )
            )

        ml_nnz = sum(p.nnz for p in gains if p.gain > self.t_ml)
        frac = ml_nnz / csr.nnz
        return PartitionedMLReport(
            partitions=tuple(gains),
            ml_nnz_fraction=frac,
            whole_matrix_gain=whole,
            detected=frac >= self.min_nnz_fraction,
        )

    def profiling_seconds(self, report: PartitionedMLReport,
                          iterations: int = PROFILING_ITERATIONS) -> float:
        """Extra profiling cost of the per-partition benchmarks."""
        seconds = 0.0
        for p in report.partitions:
            flops = 2.0 * p.nnz
            seconds += flops / (p.p_csr * 1e9) + flops / (p.p_ml * 1e9)
        return iterations * seconds

    @staticmethod
    def _gain_of(model, base, reg, csr) -> float:
        r_csr = model.run(base, base.preprocess(csr))
        r_ml = model.run(reg, csr)
        return r_ml.gflops / r_csr.gflops


class ExtendedProfileClassifier(ProfileGuidedClassifier):
    """Profile-guided classifier + partitioned irregularity detection.

    Drop-in replacement for :class:`ProfileGuidedClassifier` (works with
    :class:`~repro.core.optimizer.AdaptiveSpMV`); adds the ML class when
    the partitioned detector fires, and charges the extra profiling
    cost in :meth:`classify_with_cost`.
    """

    def __init__(
        self,
        machine: MachineSpec,
        thresholds: ProfileThresholds | None = None,
        nthreads: int | None = None,
        n_partitions: int = 8,
        min_nnz_fraction: float = 0.25,
    ):
        super().__init__(machine, thresholds, nthreads)
        self.detector = PartitionedMLDetector(
            machine,
            n_partitions=n_partitions,
            t_ml=self.thresholds.t_ml,
            min_nnz_fraction=min_nnz_fraction,
            nthreads=nthreads,
        )

    def classify(self, csr: CSRMatrix) -> ClassSet:
        classes = super().classify(csr)
        if Bottleneck.ML not in classes:
            report = self.detector.analyze(csr)
            if report.detected:
                classes = classes | {Bottleneck.ML}
        return frozenset(classes)

    def classify_with_cost(self, csr: CSRMatrix) -> tuple[ClassSet, float]:
        classes, cost = super().classify_with_cost(csr)
        if Bottleneck.ML not in classes:
            report = self.detector.analyze(csr)
            cost += self.detector.profiling_seconds(report)
            if report.detected:
                classes = frozenset(classes | {Bottleneck.ML})
        return classes, cost
